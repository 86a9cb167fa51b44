package ipg

// This file contains one benchmark per reproduced table/figure of the
// paper (E1-E16 of DESIGN.md), plus micro-benchmarks of the core
// substrate.  Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks execute the full reproduction (including
// all paper-vs-measured checks) and fail the benchmark if any check fails,
// so `-bench` doubles as an end-to-end verification pass at measured cost.

import (
	"context"
	"math/rand"
	"testing"

	"ipg/internal/ascend"
	"ipg/internal/emul"
	"ipg/internal/experiments"
	"ipg/internal/fault"
	"ipg/internal/graph"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/schedule"
	"ipg/internal/superipg"
	"ipg/internal/topo"
	"ipg/internal/topology"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("experiment %s failed:\n%s", id, res)
		}
	}
}

// E1: Figure 1a.
func BenchmarkFig1aSchedule(b *testing.B) { benchExperiment(b, "fig1a") }

// E2: Figure 1b.
func BenchmarkFig1bSchedule(b *testing.B) { benchExperiment(b, "fig1b") }

// E3: Section 3.1 dimension-11 table.
func BenchmarkDim11Emulation(b *testing.B) { benchExperiment(b, "dim11") }

// E4: Theorem 3.1 / Corollaries 3.2-3.3.
func BenchmarkSDCEmulation(b *testing.B) { benchExperiment(b, "sdc") }

// E5: Corollary 3.6.
func BenchmarkAscendSteps(b *testing.B) { benchExperiment(b, "ascend") }

// E6: Corollary 3.7.
func BenchmarkAscendGHC(b *testing.B) { benchExperiment(b, "ascend-ghc") }

// E7: Corollaries 3.10/3.11.
func BenchmarkMNBTE(b *testing.B) { benchExperiment(b, "mnb-te") }

// E8: Theorem 4.1 / Corollary 4.2.
func BenchmarkInterclusterDiameter(b *testing.B) { benchExperiment(b, "ic-diameter") }

// E9: Corollary 4.4.
func BenchmarkSymmetricDiameter(b *testing.B) { benchExperiment(b, "symmetric") }

// E10: Theorem 4.7 / Corollary 4.8.
func BenchmarkBisectionHSN(b *testing.B) { benchExperiment(b, "bisection-hsn") }

// E11: Corollaries 4.9/4.10.
func BenchmarkBisectionBaselines(b *testing.B) { benchExperiment(b, "bisection-base") }

// E12: Section 4.2 worked example.
func BenchmarkWorkedExample(b *testing.B) { benchExperiment(b, "worked-example") }

// E13: Section 4.1 off-chip transmissions.
func BenchmarkOffchipTransmissions(b *testing.B) { benchExperiment(b, "offchip") }

// E14: Sections 3.3/4.1 TE intercluster census.
func BenchmarkTEIntercluster(b *testing.B) { benchExperiment(b, "te-intercluster") }

// E15: headline throughput comparison.
func BenchmarkThroughput(b *testing.B) { benchExperiment(b, "throughput") }

// E16: Corollary 4.11.
func BenchmarkBisectionOptimality(b *testing.B) { benchExperiment(b, "optimality") }

// E17: Section 3.1 wormhole/VCT discussion.
func BenchmarkWormholeSlowdown(b *testing.B) { benchExperiment(b, "wormhole") }

// E18: matrix transposition (Section 1 task list).
func BenchmarkTranspose(b *testing.B) { benchExperiment(b, "transpose") }

// E19: ID-cost / II-cost (Section 4.2).
func BenchmarkIICost(b *testing.B) { benchExperiment(b, "ii-cost") }

// E20: Corollary 3.4 embeddings.
func BenchmarkEmbeddings(b *testing.B) { benchExperiment(b, "embeddings") }

// E21: three-tier packaging extension.
func BenchmarkMultiLevel(b *testing.B) { benchExperiment(b, "multilevel") }

// E22: HSN design-space sweep.
func BenchmarkDesignSweep(b *testing.B) { benchExperiment(b, "design-sweep") }

// --- Substrate micro-benchmarks ---

// BenchmarkBuildHSN3Q4 materializes the paper's flagship 4096-node
// instance.
func BenchmarkBuildHSN3Q4(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		if g.N() != 4096 {
			b.Fatal("wrong size")
		}
	}
}

// BenchmarkFFT4096 runs a full 4096-point FFT on HSN(3,Q4).
func BenchmarkFFT4096(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(4))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	r, err := ascend.NewRunner[complex128](w, g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, g.N())
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ascend.FFT(r, x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitonicSort1024 sorts 1024 keys on HSN(2,Q5).
func BenchmarkBitonicSort1024(b *testing.B) {
	w := superipg.HSN(2, nucleus.Hypercube(5))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	r, err := ascend.NewRunner[float64](w, g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]float64, g.N())
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ascend.BitonicSort(r, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomRouting4096 simulates random routing on HSN(3,Q4) under
// unit chip capacity.
func BenchmarkRandomRouting4096(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(4))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.BuildSuperIPG(w, g, 4.0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunRandomUniform(net, 1, 0.05, 20, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBuild builds and verifies a large all-port schedule.
func BenchmarkScheduleBuild(b *testing.B) {
	w := superipg.CompleteCN(12, nucleus.Hypercube(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := schedule.Build(w)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDCDimensionWords measures the emulation word generator.
func BenchmarkSDCDimensionWords(b *testing.B) {
	w := superipg.HSN(8, nucleus.Hypercube(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 1; j <= w.L*w.NumNucGens(); j++ {
			if _, err := emul.DimensionWord(w, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationHSNRouterVsTable compares the O(1)-state hierarchical
// HSN router against the all-pairs table router on the same network: the
// table costs O(N^2) memory and a large precomputation; the hierarchical
// router needs only the nucleus table.
func BenchmarkAblationHSNRouterVsTable(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(3))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.BuildSuperIPG(w, g, 1e9, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hierarchical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := netsim.NewHSNRouter(w, g)
			if err != nil {
				b.Fatal(err)
			}
			routeAll(b, r, g.N())
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := netsim.NewTableRouter(net)
			if err != nil {
				b.Fatal(err)
			}
			routeAll(b, tr, g.N())
		}
	})
}

func routeAll(b *testing.B, r netsim.Router, n int) {
	b.Helper()
	for src := 0; src < n; src += 37 {
		for dst := 0; dst < n; dst += 41 {
			if src != dst {
				if p := r.NextPort(src, dst); p < 0 {
					b.Fatal("router returned no port")
				}
			}
		}
	}
}

// BenchmarkAblationScheduleVsSequential compares the Theorem 3.8 all-port
// schedule (max(2n, l+1) steps) against naive sequential single-dimension
// emulation (3 steps per dimension = 3*l*n total): the schedule's step
// count is the quantity of interest, benchmarked here alongside build
// cost.
func BenchmarkAblationScheduleVsSequential(b *testing.B) {
	w := superipg.HSN(8, nucleus.Hypercube(6))
	s, err := schedule.Build(w)
	if err != nil {
		b.Fatal(err)
	}
	seq := 3 * w.L * w.NumNucGens()
	if s.T >= seq {
		b.Fatalf("schedule %d steps should beat sequential %d", s.T, seq)
	}
	b.ReportMetric(float64(seq)/float64(s.T), "speedup")
	for i := 0; i < b.N; i++ {
		s, err := schedule.Build(w)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelBFS compares source-parallel and serial
// all-pairs BFS on the HSN(3,Q3) graph.
func BenchmarkAblationParallelBFS(b *testing.B) {
	g := superipg.HSN(3, nucleus.Hypercube(3)).MustBuild().Undirected()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Diameter() < 0 {
				b.Fatal("disconnected")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d, _, _ := graph.Distances(context.Background(), g); d < 0 {
				b.Fatal("disconnected")
			}
		}
	})
}

// rowsBFSInto is the pre-refactor BFS over a per-row [][]int32 adjacency,
// kept verbatim as the baseline for BenchmarkBFS_CSR.  (Test files are the
// one place the row representation may still be spelled — see the adjbuild
// analyzer.)
func rowsBFSInto(rows [][]int32, src int, dist, queue []int32) (ecc int32, sum int64) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	visited := 1
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		sum += int64(du)
		for _, v := range rows[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
				visited++
			}
		}
	}
	if visited != len(rows) {
		return -1, sum
	}
	return ecc, sum
}

// hsn3q4Rows materializes HSN(3,Q4) undirected plus a per-row copy of its
// adjacency (the seed representation), for the representation benchmarks.
func hsn3q4Rows(b *testing.B) (*UndirectedGraph, [][]int32) {
	b.Helper()
	g := superipg.HSN(3, nucleus.Hypercube(4)).MustBuild().Undirected()
	rows := make([][]int32, g.N())
	var buf []int32
	for v := 0; v < g.N(); v++ {
		buf = g.NeighborsInto(v, buf)
		rows[v] = append([]int32(nil), buf...)
	}
	return g, rows
}

// BenchmarkBFS_CSR measures one full BFS over HSN(3,Q4) (4096 nodes) in
// the flat CSR arena versus the pre-refactor per-row slice representation.
func BenchmarkBFS_CSR(b *testing.B) {
	g, rows := hsn3q4Rows(b)
	n := g.N()
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	b.Run("csr", func(b *testing.B) {
		c := g.CSR()
		for i := 0; i < b.N; i++ {
			if ecc, _, _ := topo.BFSSourceInto(c, i%n, dist, queue, nil); ecc < 0 {
				b.Fatal("disconnected")
			}
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ecc, _ := rowsBFSInto(rows, i%n, dist, queue); ecc < 0 {
				b.Fatal("disconnected")
			}
		}
	})
}

// BenchmarkBFSMemoryFootprint reports the adjacency storage of HSN(3,Q4)
// in bytes per vertex for both representations: the CSR arena (uint32
// offsets + int32 arena) versus per-row slices (24-byte slice header plus
// a backing array per vertex).
func BenchmarkBFSMemoryFootprint(b *testing.B) {
	g, rows := hsn3q4Rows(b)
	n := float64(g.N())
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.MemoryFootprint()
		}
		b.ReportMetric(float64(g.MemoryFootprint())/n, "bytes/vertex")
	})
	b.Run("rows", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			bytes = int64(len(rows)) * 24 // slice headers
			for _, r := range rows {
				bytes += int64(cap(r)) * 4
			}
		}
		b.ReportMetric(float64(bytes)/n, "bytes/vertex")
	})
}

// benchFamilies4096 materializes the eight golden families at serving
// scale (~4096 nodes) for the all-sources BFS benchmarks.  The super
// families come through their orbit-marked view, as ipgd builds them.
func benchFamilies4096() []struct {
	name string
	g    *graph.Graph
} {
	q4 := func() *nucleus.Nucleus { return nucleus.Hypercube(4) }
	view := func(w *superipg.Network) *graph.Graph { return w.Undirected(w.MustBuild()) }
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"HSN3Q4", view(superipg.HSN(3, q4()))},
		{"ringCN3Q4", view(superipg.RingCN(3, q4()))},
		{"completeCN3Q4", view(superipg.CompleteCN(3, q4()))},
		{"SFN3Q4", view(superipg.SFN(3, q4()))},
		{"Q12", topology.NewHypercube(12).G},
		{"64ary2cube", topology.NewTorus(64, 2).G},
		{"CCC9", topology.NewCCC(9).G},
		{"WBF9", topology.NewButterfly(9).G},
	}
}

// BenchmarkAllSourcesBFS measures one full all-sources distance sweep per
// family three ways, all single-threaded so the numbers isolate kernel
// effects from worker-pool parallelism:
//
//   - scalar: one scalar BFS per source,
//   - msbfs: 64-source batches through the bit-parallel kernel,
//   - orbits: the msbfs batches over the orbit representatives only (one
//     node per cluster), for the super families, where they already yield
//     the exact diameter and average distance,
//   - symmetry: a single source, valid only for the vertex-transitive
//     families, where it already yields the exact diameter and average
//     distance.
//
// scripts/bench_compare.sh turns these into the speedup ratios committed
// in BENCH_PR4.json.
func BenchmarkAllSourcesBFS(b *testing.B) {
	for _, f := range benchFamilies4096() {
		c := f.g.CSR()
		n := c.N()
		b.Run(f.name+"/scalar", func(b *testing.B) {
			dist := make([]int32, n)
			queue := make([]int32, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var diam int32
				for src := 0; src < n; src++ {
					ecc, _, _ := topo.BFSSourceInto(c, src, dist, queue, nil)
					if ecc > diam {
						diam = ecc
					}
				}
				if diam <= 0 {
					b.Fatal("bad diameter")
				}
			}
		})
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		// sweepOver times the bit-parallel kernel over srcs in 64-source
		// batches.
		sweepOver := func(srcs []int32) func(b *testing.B) {
			return func(b *testing.B) {
				s := topo.NewMSBFSScratch(n)
				ecc := make([]int32, 64)
				sum := make([]int64, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var diam int32
					for lo := 0; lo < len(srcs); lo += 64 {
						batch := srcs[lo:min(lo+64, len(srcs))]
						topo.MSBFSSourceInto(c, batch, s, ecc, sum, nil, nil)
						for _, e := range ecc[:len(batch)] {
							diam = max(diam, e)
						}
					}
					if diam <= 0 {
						b.Fatal("bad diameter")
					}
				}
			}
		}
		b.Run(f.name+"/msbfs", sweepOver(all))
		if reps := f.g.Orbits(); len(reps) > 1 {
			b.Run(f.name+"/orbits", sweepOver(reps))
		}
		if !f.g.VertexTransitive() {
			continue
		}
		b.Run(f.name+"/symmetry", func(b *testing.B) {
			dist := make([]int32, n)
			queue := make([]int32, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ecc, _, _ := topo.BFSSourceInto(c, 0, dist, queue, nil); ecc <= 0 {
					b.Fatal("bad eccentricity")
				}
			}
		})
	}
}

// BenchmarkMaskedSweepBFS times fault.Analyze on HSN(3,Q4) (4096 nodes)
// with 8 faults: the component census plus the all-alive-sources sweep
// through the masked MSBFS kernel, which dominates.  It covers the
// kernel's three masked inputs: the arena with a vertex mask, the arena
// with an arc mask, and a codec source with a vertex mask.
func BenchmarkMaskedSweepBFS(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(4))
	c := w.MustBuild().Undirected().CSR()
	im, err := w.Implicit()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  topo.Source
		mode fault.Mode
	}{
		{"csr-nodes", c, fault.Nodes},
		{"csr-links", c, fault.Links},
		{"codec-nodes", im, fault.Nodes},
	} {
		set, err := fault.NewForSource(tc.src, fault.Spec{Mode: tc.mode, Count: 8, Seed: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		dv, err := fault.NewDegradedSourceView(tc.src, set)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := dv.Analyze(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if rep.GiantDiameter <= 0 {
					b.Fatal("bad giant diameter")
				}
			}
		})
	}
}

// benchSources4096 pairs each golden family at serving scale with both
// of its adjacency sources: the materialized CSR arena and the implicit
// rank/unrank codec over the same vertex numbering.
func benchSources4096() []struct {
	name string
	csr  *topo.CSR
	impl *topo.Implicit
} {
	q4 := func() *nucleus.Nucleus { return nucleus.Hypercube(4) }
	superPair := func(w *superipg.Network) (*topo.CSR, *topo.Implicit) {
		im, err := w.Implicit()
		if err != nil {
			panic(err)
		}
		// Materialize the CSR in address order so both sources traverse
		// the same vertex numbering (the equivalence tests pin the two
		// representations to identical rows).
		c, err := topo.Build(im.N(), func(edge func(u, v int)) {
			var buf []int32
			for v := 0; v < im.N(); v++ {
				buf = im.NeighborsInto(v, buf)
				for _, u := range buf {
					edge(v, int(u))
				}
			}
		})
		if err != nil {
			panic(err)
		}
		return c, im
	}
	baselinePair := func(g *graph.Graph, cd topo.Codec, err error) (*topo.CSR, *topo.Implicit) {
		if err != nil {
			panic(err)
		}
		return g.CSR(), topo.NewImplicit(cd)
	}
	mk := func(name string, c *topo.CSR, im *topo.Implicit) struct {
		name string
		csr  *topo.CSR
		impl *topo.Implicit
	} {
		return struct {
			name string
			csr  *topo.CSR
			impl *topo.Implicit
		}{name, c, im}
	}
	hc, herr := topo.NewHypercubeCodec(12)
	tc, terr := topo.NewTorusCodec(64, 2)
	cc, cerr := topo.NewCCCCodec(9)
	bc, berr := topo.NewButterflyCodec(9)
	hsnC, hsnI := superPair(superipg.HSN(3, q4()))
	sfnC, sfnI := superPair(superipg.SFN(3, q4()))
	q12C, q12I := baselinePair(topology.NewHypercube(12).G, hc, herr)
	torC, torI := baselinePair(topology.NewTorus(64, 2).G, tc, terr)
	cccC, cccI := baselinePair(topology.NewCCC(9).G, cc, cerr)
	wbfC, wbfI := baselinePair(topology.NewButterfly(9).G, bc, berr)
	return []struct {
		name string
		csr  *topo.CSR
		impl *topo.Implicit
	}{
		mk("HSN3Q4", hsnC, hsnI),
		mk("SFN3Q4", sfnC, sfnI),
		mk("Q12", q12C, q12I),
		mk("64ary2cube", torC, torI),
		mk("CCC9", cccC, cccI),
		mk("WBF9", wbfC, wbfI),
	}
}

// BenchmarkNeighborGen measures one full neighbor sweep — NeighborsInto
// over every vertex — per family for both adjacency sources.  The ratio
// implicit/csr is the per-row cost of regenerating adjacency from the
// rank/unrank codec instead of loading an arena row; bench_compare.sh
// gates it against scripts/bench_baseline_pr4.json so a codec change that
// quietly blows up the implicit serving path fails CI.  Single-threaded
// for the same reason as BenchmarkAllSourcesBFS.
func BenchmarkNeighborGen(b *testing.B) {
	for _, f := range benchSources4096() {
		sweep := func(s topo.Source) func(b *testing.B) {
			return func(b *testing.B) {
				n := s.N()
				buf := make([]int32, 0, s.DegreeBound())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var touched int64
					for v := 0; v < n; v++ {
						buf = s.NeighborsInto(v, buf)
						touched += int64(len(buf))
					}
					if touched <= 0 {
						b.Fatal("empty sweep")
					}
				}
			}
		}
		b.Run(f.name+"/csr", sweep(f.csr))
		b.Run(f.name+"/implicit", sweep(f.impl))
	}
}

// BenchmarkRouteBFS times /v1/route's path computation on the codec
// sources of benchSources4096, two ways.  One op routes the same 64
// seeded (src, dst) pairs plus the antipodal pair (0, the lowest-numbered
// vertex farthest from 0):
//
//   - walk: the full-BFS reference, a BFS from src then the walk back from
//     dst to the first neighbor in row order one hop closer to src;
//   - search: topo.ShortestPath, the bidirectional search that returns the
//     same path.
//
// Both reuse their buffers across ops.  scripts/bench_compare.sh gates
// the per-family ratio walk/search as route_speedup.
func BenchmarkRouteBFS(b *testing.B) {
	ctx := context.Background()
	for _, f := range benchSources4096() {
		s := f.impl
		n := s.N()
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		nbuf := make([]int32, 0, s.DegreeBound())
		rng := rand.New(rand.NewSource(1))
		pairs := make([][2]int, 64, 65)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		topo.BFSSourceInto(s, 0, dist, queue, nbuf)
		far := 0
		for v, d := range dist {
			if d > dist[far] {
				far = v
			}
		}
		pairs = append(pairs, [2]int{0, far})
		b.Run(f.name+"/walk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pr := range pairs {
					nbuf = benchWalkRoute(s, pr[0], pr[1], dist, queue, nbuf)
				}
			}
		})
		b.Run(f.name+"/search", func(b *testing.B) {
			sc := topo.GetScratch(n)
			defer topo.PutScratch(sc)
			for i := 0; i < b.N; i++ {
				for _, pr := range pairs {
					if _, err := topo.ShortestPath(ctx, s, pr[0], pr[1], sc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchWalkRoute is BenchmarkRouteBFS's full-BFS reference route; it
// returns the (possibly grown) neighbor buffer.
func benchWalkRoute(s topo.Source, src, dst int, dist, queue, nbuf []int32) []int32 {
	_, _, nbuf = topo.BFSSourceInto(s, src, dist, queue, nbuf)
	path := make([]int, dist[dst]+1)
	path[len(path)-1] = dst
	for d := len(path) - 1; d > 0; d-- {
		nbuf = s.NeighborsInto(path[d], nbuf)
		for _, v := range nbuf {
			if int(dist[v]) == d-1 {
				path[d-1] = int(v)
				break
			}
		}
	}
	return nbuf
}

// BenchmarkNetsimStepAllocs measures steady-state rounds of the packet
// simulator under random uniform traffic on HSN(3,Q3); run with -benchmem
// to see the per-round allocation budget the persistent phase and emit
// closures buy.
func BenchmarkNetsimStepAllocs(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(3))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.BuildSuperIPG(w, g, 8.0, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netsim.New(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	rngs := make([]*rand.Rand, net.N)
	for u := range rngs {
		rngs[u] = rand.New(rand.NewSource(1 + int64(u)*1_000_003))
	}
	sim.SetInjector(func(u int, _ int32) {
		rng := rngs[u]
		if rng.Float64() < 0.2 {
			dst := int32(rng.Intn(net.N - 1))
			if int(dst) >= u {
				dst++
			}
			sim.Emit(u, dst)
		}
	})
	for i := 0; i < 50; i++ { // fill the pipeline before measuring
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimShortRun times one /v1/simulate-shaped random run end to
// end — New's set-up plus 10 warm-up and 40 measured rounds at rate 0.1 —
// the set-up path BenchmarkNetsimStepAllocs never sees.  It covers each
// network of the perfbench sim-compute workload, plus HSN(3,Q3) with 4
// failed nodes under the FaultAwareRouter a faulted simulate builds (the
// table is built once, outside the timer).
func BenchmarkNetsimShortRun(b *testing.B) {
	q3 := nucleus.Hypercube(3)
	built := func(net *netsim.Network, err error) *netsim.Network {
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	superNet := func(w *superipg.Network) *netsim.Network {
		return built(netsim.BuildSuperIPG(w, w.MustBuild(), 8.0, nil))
	}
	hsn := superNet(superipg.HSN(3, q3))
	faulted, _, err := netsim.Degrade(hsn, fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	aware, err := netsim.NewFaultAwareRouter(faulted)
	if err != nil {
		b.Fatal(err)
	}
	faulted.Router = aware
	for _, c := range []struct {
		name string
		net  *netsim.Network
	}{
		{"HSN(3,Q3)", hsn},
		{"SFN(3,Q3)", superNet(superipg.SFN(3, q3))},
		{"ring-CN(3,Q3)", superNet(superipg.RingCN(3, q3))},
		{"Q9/M=8", built(netsim.BuildHypercube(9, 3, 8.0))},
		{"torus24/M=16", built(netsim.BuildTorus2D(24, 4, 8.0))},
		{"HSN(3,Q3)/nodes=4/aware", faulted},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := netsim.RunRandomUniform(c.net, int64(i%4)+1, 0.1, 10, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTotalExchange512 runs a full total exchange on HSN(3,Q3).
func BenchmarkTotalExchange512(b *testing.B) {
	w := superipg.HSN(3, nucleus.Hypercube(3))
	g, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.BuildSuperIPG(w, g, 1e9, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunTotalExchange(net, 1, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimRouterBuild times every table builder on the shared
// routing core: the TableRouter the CN families and SFN simulate with
// (representative rows on these healthy networks; the 1,024-node
// complete-CN(2,Q5) and ring-CN(5,Q2) are cold-sweep's largest simulate
// keys),
// the FaultAwareRouter a faulted /v1/simulate rebuilds per request, the
// MultipathRouter (generic 2-IST trees plus the alive shortest-path
// fallback), and the HSNRouter's nucleus table with its label digests.
// The nodes=4 fault-aware cases are the 512- and 576-node networks a
// faulted simulate builds its table on in the perfbench sim-compute
// workload, which fails 2 or 4 nodes.
func BenchmarkNetsimRouterBuild(b *testing.B) {
	q3 := nucleus.Hypercube(3)
	simNet := func(w *superipg.Network) *netsim.Network {
		net, err := netsim.BuildSuperIPG(w, w.MustBuild(), 8.0, nil)
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	degraded := func(base *netsim.Network, spec fault.Spec) *netsim.Network {
		net, _, err := netsim.Degrade(base, spec)
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	hsn := simNet(superipg.HSN(3, q3))
	ringCN := simNet(superipg.RingCN(3, q3))
	sfn := simNet(superipg.SFN(3, q3))
	completeCNQ5 := simNet(superipg.CompleteCN(2, nucleus.Hypercube(5)))
	ringCNQ2 := simNet(superipg.RingCN(5, nucleus.Hypercube(2)))
	linkFaults := degraded(hsn, fault.Spec{Mode: fault.Links, Count: 8, Seed: 1})
	nodeFaults := degraded(hsn, fault.Spec{Mode: fault.Nodes, Count: 8, Seed: 1})
	built := func(net *netsim.Network, err error) *netsim.Network {
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	fourDead := fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 1}
	sfnFaults := degraded(sfn, fourDead)
	ringCNFaults := degraded(ringCN, fourDead)
	q9Faults := degraded(built(netsim.BuildHypercube(9, 3, 8.0)), fourDead)
	torusFaults := degraded(built(netsim.BuildTorus2D(24, 4, 8.0)), fourDead)
	hsnQ4 := superipg.HSN(3, nucleus.Hypercube(4))
	gQ4 := hsnQ4.MustBuild()
	for _, c := range []struct {
		name  string
		build func() (netsim.Router, error)
	}{
		{"table/ring-CN(3,Q3)", func() (netsim.Router, error) { return netsim.NewTableRouter(ringCN) }},
		{"table/SFN(3,Q3)", func() (netsim.Router, error) { return netsim.NewTableRouter(sfn) }},
		{"table/complete-CN(2,Q5)", func() (netsim.Router, error) { return netsim.NewTableRouter(completeCNQ5) }},
		{"table/ring-CN(5,Q2)", func() (netsim.Router, error) { return netsim.NewTableRouter(ringCNQ2) }},
		{"fault-aware/HSN(3,Q3)/links=8", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(linkFaults) }},
		{"fault-aware/HSN(3,Q3)/nodes=8", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(nodeFaults) }},
		{"fault-aware/SFN(3,Q3)/nodes=4", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(sfnFaults) }},
		{"fault-aware/ring-CN(3,Q3)/nodes=4", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(ringCNFaults) }},
		{"fault-aware/Q9/nodes=4", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(q9Faults) }},
		{"fault-aware/24-ary-2-cube/nodes=4", func() (netsim.Router, error) { return netsim.NewFaultAwareRouter(torusFaults) }},
		{"multipath/HSN(3,Q3)/links=8", func() (netsim.Router, error) {
			return netsim.NewMultipathRouter(linkFaults, netsim.GenericTreeSource(hsn, 2))
		}},
		{"hsn/HSN(3,Q4)", func() (netsim.Router, error) { return netsim.NewHSNRouter(hsnQ4, gQ4) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
