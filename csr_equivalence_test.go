package ipg

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"ipg/internal/graph"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
	"ipg/internal/topology"
)

// csrGolden pins the metrics of every materialized family to values
// captured with the pre-CSR per-row adjacency representation.  The CSR
// arena sorts each row ascending exactly as the old representation did,
// so every metric — including the seeded greedy bisection search, which
// is sensitive to neighbor iteration order — must reproduce bit-identical
// values.  A mismatch here means the representation changed observable
// behavior, not just layout.
type csrGolden struct {
	name         string
	build        func() *graph.Graph
	n, m         int
	minDeg       int
	maxDeg       int
	diameter     int
	avgDistance  float64
	bisectionCut int
	avgDegree    float64
}

func csrGoldens() []csrGolden {
	q2 := func() *nucleus.Nucleus { return nucleus.Hypercube(2) }
	// The super goldens take the orbit-marked view, so the serial-vs-
	// Distances check below covers the one-node-per-cluster sweep.
	view := func(w *superipg.Network) *graph.Graph { return w.Undirected(w.MustBuild()) }
	return []csrGolden{
		{
			name:  "HSN(3,Q2)",
			build: func() *graph.Graph { return view(superipg.HSN(3, q2())) },
			n:     64, m: 112, minDeg: 2, maxDeg: 4, diameter: 8,
			avgDistance: 3.57421875, bisectionCut: 18, avgDegree: 3.5,
		},
		{
			name:  "ring-CN(3,Q2)",
			build: func() *graph.Graph { return view(superipg.RingCN(3, q2())) },
			n:     64, m: 124, minDeg: 2, maxDeg: 4, diameter: 8,
			avgDistance: 3.599609375, bisectionCut: 24, avgDegree: 3.875,
		},
		{
			name:  "complete-CN(3,Q2)",
			build: func() *graph.Graph { return view(superipg.CompleteCN(3, q2())) },
			n:     64, m: 124, minDeg: 2, maxDeg: 4, diameter: 8,
			avgDistance: 3.599609375, bisectionCut: 24, avgDegree: 3.875,
		},
		{
			name:  "SFN(3,Q2)",
			build: func() *graph.Graph { return view(superipg.SFN(3, q2())) },
			n:     64, m: 112, minDeg: 2, maxDeg: 4, diameter: 8,
			avgDistance: 3.57421875, bisectionCut: 18, avgDegree: 3.5,
		},
		{
			name:  "Q6",
			build: func() *graph.Graph { return topology.NewHypercube(6).G },
			n:     64, m: 192, minDeg: 6, maxDeg: 6, diameter: 6,
			avgDistance: 3, bisectionCut: 52, avgDegree: 6,
		},
		{
			name:  "8-ary 2-cube",
			build: func() *graph.Graph { return topology.NewTorus(8, 2).G },
			n:     64, m: 128, minDeg: 4, maxDeg: 4, diameter: 8,
			avgDistance: 4, bisectionCut: 20, avgDegree: 4,
		},
		{
			name:  "CCC(3)",
			build: func() *graph.Graph { return topology.NewCCC(3).G },
			n:     24, m: 36, minDeg: 3, maxDeg: 3, diameter: 6,
			avgDistance: 3.0833333333333335, bisectionCut: 6, avgDegree: 3,
		},
		{
			name:  "WBF(3)",
			build: func() *graph.Graph { return topology.NewButterfly(3).G },
			n:     24, m: 48, minDeg: 4, maxDeg: 4, diameter: 4,
			avgDistance: 2.2916666666666665, bisectionCut: 8, avgDegree: 4,
		},
	}
}

// TestCSREquivalenceGoldens checks the CSR-backed metrics against the
// pre-refactor goldens for all eight families.
func TestCSREquivalenceGoldens(t *testing.T) {
	for _, tc := range csrGoldens() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if g.N() != tc.n {
				t.Errorf("N = %d, want %d", g.N(), tc.n)
			}
			if g.M() != tc.m {
				t.Errorf("M = %d, want %d", g.M(), tc.m)
			}
			minDeg, maxDeg, avgDeg := g.DegreeStats()
			if minDeg != tc.minDeg || maxDeg != tc.maxDeg {
				t.Errorf("degree range [%d,%d], want [%d,%d]", minDeg, maxDeg, tc.minDeg, tc.maxDeg)
			}
			if avgDeg != tc.avgDegree {
				t.Errorf("avg degree = %v, want %v", avgDeg, tc.avgDegree)
			}
			if d := g.Diameter(); d != tc.diameter {
				t.Errorf("diameter = %d, want %d", d, tc.diameter)
			}
			if a := g.AverageDistance(); a != tc.avgDistance {
				t.Errorf("avg distance = %v, want %v", a, tc.avgDistance)
			}
			// The greedy bisection search consumes the rand stream in
			// neighbor-iteration order: the cut value is bit-identical
			// only if the CSR rows match the old sorted rows exactly.
			_, cut := g.BestBisection(rand.New(rand.NewSource(7)), 3, 50)
			if cut != tc.bisectionCut {
				t.Errorf("BestBisection cut = %d, want %d", cut, tc.bisectionCut)
			}
		})
	}
}

// TestMSBFSMatchesScalarGoldens runs the bit-parallel multi-source BFS
// over every source of all eight golden families and checks each lane's
// eccentricity, distance sum, and full distance vector against the scalar
// kernel, bit for bit.  Together with the random-graph property test in
// internal/topo this pins the batched kernel to the scalar contract on
// the exact graphs the reproduction serves.
func TestMSBFSMatchesScalarGoldens(t *testing.T) {
	for _, tc := range csrGoldens() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build().CSR()
			n := c.N()
			s := topo.NewMSBFSScratch(n)
			scalarDist := make([]int32, n)
			queue := make([]int32, 0, n)
			ecc := make([]int32, 64)
			sum := make([]int64, 64)
			dist := make([]int16, 64*n)
			srcs := make([]int32, 0, 64)
			for lo := 0; lo < n; lo += 64 {
				hi := lo + 64
				if hi > n {
					hi = n
				}
				srcs = srcs[:0]
				for v := lo; v < hi; v++ {
					srcs = append(srcs, int32(v))
				}
				topo.MSBFSSourceInto(c, srcs, s, ecc, sum, dist, nil)
				for i, src := range srcs {
					wantEcc, wantSum, _ := topo.BFSSourceInto(c, int(src), scalarDist, queue, nil)
					if ecc[i] != wantEcc || sum[i] != wantSum {
						t.Fatalf("src %d: msbfs ecc=%d sum=%d, scalar ecc=%d sum=%d",
							src, ecc[i], sum[i], wantEcc, wantSum)
					}
					for v := 0; v < n; v++ {
						if int32(dist[i*n+v]) != scalarDist[v] {
							t.Fatalf("src %d: dist[%d] = %d, scalar %d", src, v, dist[i*n+v], scalarDist[v])
						}
					}
				}
			}
		})
	}
}

// implicitGolden pairs a golden family's materialized CSR with its
// codec-backed implicit source and the vertex relabeling between them:
// pi[v] is the implicit vertex id of materialized vertex v.  Baseline
// builders number vertices by codec rank already (pi = identity); a
// super-IPG's implicit vertex id is its mixed-radix group address.
type implicitGolden struct {
	name  string
	build func(t *testing.T) (*topo.CSR, *topo.Implicit, []int32)
}

func superImplicitGolden(name string, build func() *superipg.Network) implicitGolden {
	return implicitGolden{name: name, build: func(t *testing.T) (*topo.CSR, *topo.Implicit, []int32) {
		w := build()
		g := w.MustBuild()
		c := g.Undirected().CSR()
		im, err := w.Implicit()
		if err != nil {
			t.Fatalf("Implicit: %v", err)
		}
		pi := make([]int32, g.N())
		for v := 0; v < g.N(); v++ {
			a, err := w.AddressOf(g.Label(v))
			if err != nil {
				t.Fatalf("AddressOf(%v): %v", g.Label(v), err)
			}
			pi[v] = int32(a)
		}
		return c, im, pi
	}}
}

func baselineImplicitGolden(name string, g func() *graph.Graph, codec func() (topo.Codec, error)) implicitGolden {
	return implicitGolden{name: name, build: func(t *testing.T) (*topo.CSR, *topo.Implicit, []int32) {
		c := g().CSR()
		cd, err := codec()
		if err != nil {
			t.Fatalf("codec: %v", err)
		}
		im := topo.NewImplicit(cd)
		pi := make([]int32, c.N())
		for v := range pi {
			pi[v] = int32(v)
		}
		return c, im, pi
	}}
}

func implicitGoldens() []implicitGolden {
	q2 := func() *nucleus.Nucleus { return nucleus.Hypercube(2) }
	return []implicitGolden{
		superImplicitGolden("HSN(3,Q2)", func() *superipg.Network { return superipg.HSN(3, q2()) }),
		superImplicitGolden("ring-CN(3,Q2)", func() *superipg.Network { return superipg.RingCN(3, q2()) }),
		superImplicitGolden("complete-CN(3,Q2)", func() *superipg.Network { return superipg.CompleteCN(3, q2()) }),
		superImplicitGolden("SFN(3,Q2)", func() *superipg.Network { return superipg.SFN(3, q2()) }),
		baselineImplicitGolden("Q6",
			func() *graph.Graph { return topology.NewHypercube(6).G },
			func() (topo.Codec, error) { return topo.NewHypercubeCodec(6) }),
		baselineImplicitGolden("8-ary 2-cube",
			func() *graph.Graph { return topology.NewTorus(8, 2).G },
			func() (topo.Codec, error) { return topo.NewTorusCodec(8, 2) }),
		baselineImplicitGolden("CCC(3)",
			func() *graph.Graph { return topology.NewCCC(3).G },
			func() (topo.Codec, error) { return topo.NewCCCCodec(3) }),
		baselineImplicitGolden("WBF(3)",
			func() *graph.Graph { return topology.NewButterfly(3).G },
			func() (topo.Codec, error) { return topo.NewButterflyCodec(3) }),
	}
}

// TestImplicitMatchesCSRGoldens checks the codec-backed implicit adjacency
// against the materialized CSR on every golden family, row by row: the
// relabeled CSR row of each vertex must equal the implicit row of its
// image bit for bit.  Passing here means a traversal kernel sees the same
// graph whichever representation backs it.
func TestImplicitMatchesCSRGoldens(t *testing.T) {
	for _, tc := range implicitGoldens() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, im, pi := tc.build(t)
			n := c.N()
			if im.N() != n {
				t.Fatalf("implicit N = %d, CSR N = %d", im.N(), n)
			}
			// pi must be a bijection or the row comparison is meaningless.
			seen := make([]bool, n)
			for v, a := range pi {
				if a < 0 || int(a) >= n || seen[a] {
					t.Fatalf("relabeling is not a bijection at v=%d -> %d", v, a)
				}
				seen[a] = true
			}
			var cbuf, ibuf, mapped []int32
			for v := 0; v < n; v++ {
				cbuf = c.NeighborsInto(v, cbuf)
				mapped = mapped[:0]
				for _, u := range cbuf {
					mapped = append(mapped, pi[u])
				}
				sort.Slice(mapped, func(i, j int) bool { return mapped[i] < mapped[j] })
				ibuf = im.NeighborsInto(int(pi[v]), ibuf)
				if len(ibuf) != len(mapped) {
					t.Fatalf("v=%d: implicit degree %d, CSR degree %d", v, len(ibuf), len(mapped))
				}
				for i := range ibuf {
					if ibuf[i] != mapped[i] {
						t.Fatalf("v=%d: implicit row %v, relabeled CSR row %v", v, ibuf, mapped)
					}
				}
			}
			if im.DegreeBound() < c.DegreeBound() {
				t.Errorf("implicit DegreeBound %d < CSR max degree %d", im.DegreeBound(), c.DegreeBound())
			}
		})
	}
}

// TestImplicitMetricsMatchCSRGoldens runs the generic metric kernels over
// the implicit source of every golden family and checks diameter and
// average distance against the materialized graph's golden values.  The
// super families are not vertex-transitive as codecs, so this exercises
// the full all-sources sweep over implicit adjacency too.
func TestImplicitMetricsMatchCSRGoldens(t *testing.T) {
	goldens := csrGoldens()
	for i, tc := range implicitGoldens() {
		tc, want := tc, goldens[i]
		if tc.name != want.name {
			t.Fatalf("golden tables out of sync: %q vs %q", tc.name, want.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			_, im, _ := tc.build(t)
			d, a, err := graph.Distances(context.Background(), im)
			if err != nil {
				t.Fatalf("Distances: %v", err)
			}
			if d != want.diameter {
				t.Errorf("implicit diameter = %d, want %d", d, want.diameter)
			}
			if a != want.avgDistance {
				t.Errorf("implicit avg distance = %v, want %v", a, want.avgDistance)
			}
		})
	}
}

// TestCSRParallelMetricsMatchSerial checks that the worker-pool metric
// paths see the same finalized CSR as the serial paths.
func TestCSRParallelMetricsMatchSerial(t *testing.T) {
	for _, tc := range csrGoldens() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			dp, ap, err := graph.Distances(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if d := g.Diameter(); d != dp {
				t.Errorf("parallel diameter = %d, serial = %d", dp, d)
			}
			if a := g.AverageDistance(); a != ap {
				t.Errorf("parallel avg distance = %v, serial = %v", ap, a)
			}
		})
	}
}
