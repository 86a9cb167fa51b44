// Command ipgtool builds interconnection networks from the paper's
// families and prints their structural and MCMP metrics.
//
// Usage examples:
//
//	ipgtool -net hsn -l 3 -nucleus q4          # HSN(3,Q4)
//	ipgtool -net complete-cn -l 4 -nucleus q2  # complete-CN(4,Q2)
//	ipgtool -net hcn -nucleus q5               # HCN(5,5)
//	ipgtool -net hypercube -dim 10 -logm 2     # 10-cube, 4-node chips
//	ipgtool -net torus -k 16 -side 4           # 16-ary 2-cube, 16-node chips
//	ipgtool -net hsn -l 4 -nucleus ghc:4,4     # HSN over GHC(4,4)
//	ipgtool -net hsn -l 4 -nucleus q3 -schedule  # print the Thm 3.8 schedule
//	ipgtool -net hsn -l 3 -nucleus q4 -json    # machine-readable metrics
//	ipgtool -net torus -k 2560 -json           # 6.5M nodes, implicit codec
//	ipgtool -net hypercube -dim 10 -json -impl implicit  # force the codec
//
// With -json the output is the same metrics document the ipgd daemon
// serves on /v1/metrics (see docs/serving.md), produced by the same
// encoder.  -impl selects the adjacency representation for -json:
// "csr" forces materialization, "implicit" forces the rank/unrank codec
// (O(1) memory at any size), "auto" (the default) materializes up to the
// cap and goes implicit above it; the document's representation and
// bytes_per_vertex fields report the choice.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ipg/internal/analysis"
	"ipg/internal/graph"
	"ipg/internal/mcmp"
	"ipg/internal/nucleus"
	"ipg/internal/schedule"
	"ipg/internal/serve"
	"ipg/internal/superipg"
	"ipg/internal/topology"
)

// materializeCap matches the ipgd default: larger instances are served
// with label-level metrics only.
const materializeCap = 1 << 16

func main() {
	var (
		netName  = flag.String("net", "hsn", "family: hsn|ring-cn|complete-cn|sfn|hcn|rcc|hypercube|torus|ccc|butterfly")
		l        = flag.Int("l", 3, "number of super-symbols (super-IPG families)")
		nucName  = flag.String("nucleus", "q2", "nucleus: qK | fqK | kM | cM | sN | ghc:m1,m2,...")
		dim      = flag.Int("dim", 8, "dimension (hypercube/ccc/butterfly)")
		logm     = flag.Int("logm", 2, "log2 nodes per chip (hypercube)")
		k        = flag.Int("k", 8, "radix (torus)")
		side     = flag.Int("side", 2, "chip side (torus)")
		band     = flag.Int("band", 2, "level band width (butterfly)")
		sched    = flag.Bool("schedule", false, "print the all-port emulation schedule (Theorem 3.8; super-IPG families)")
		diameter = flag.Bool("diameter", false, "compute the exact graph diameter (O(N^2), slow for large N)")
		dotFile  = flag.String("dot", "", "write the network (chips as clusters, off-chip links red) as Graphviz DOT to this file (super-IPG families)")
		jsonOut  = flag.Bool("json", false, "emit the machine-readable metrics document (same shape as ipgd's /v1/metrics)")
		implMode = flag.String("impl", "auto", "adjacency representation for -json: csr|implicit|auto")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usageError("unexpected arguments: %v", flag.Args())
	}

	// Reject parameters the chosen family does not consume (e.g.
	// `-net hypercube -nucleus q4`) instead of silently ignoring them.
	flagToParam := map[string]string{
		"l": "l", "nucleus": "nucleus", "dim": "dim", "logm": "logm",
		"k": "k", "side": "side", "band": "band",
	}
	provided := map[string]bool{}
	implSet := false
	flag.Visit(func(f *flag.Flag) {
		if p, ok := flagToParam[f.Name]; ok {
			provided[p] = true
		}
		if f.Name == "impl" {
			implSet = true
		}
	})
	switch *implMode {
	case "auto", "csr", "implicit":
	default:
		usageError("-impl must be csr, implicit, or auto (got %q)", *implMode)
	}
	if implSet && !*jsonOut {
		usageError("-impl selects the -json representation; it does not apply to the table output")
	}
	p := serve.Params{
		Net: *netName, L: *l, Nucleus: *nucName,
		Dim: *dim, LogM: *logm, K: *k, Side: *side, Band: *band,
	}
	if err := p.Check(provided); err != nil {
		usageError("%v", err)
	}
	if (*sched || *dotFile != "") && !serve.IsSuperFamily(p.Net) {
		usageError("-schedule and -dot apply only to super-IPG families, not %q", p.Net)
	}

	if *jsonOut {
		if *sched || *dotFile != "" {
			usageError("-json cannot be combined with -schedule or -dot")
		}
		var (
			a   *serve.Artifact
			err error
		)
		switch *implMode {
		case "csr":
			a, err = serve.BuildArtifact(context.Background(), p, materializeCap)
			if err == nil && a.Rep() != serve.RepCSR {
				usageError("%s has %d nodes, above the materialization cap %d; -impl=csr does not apply (use implicit or auto)", a.Name, a.N, materializeCap)
			}
		case "implicit":
			// A switch point of one node forces every real instance through
			// its codec; families without one fall back and are rejected.
			a, err = serve.BuildArtifactThreshold(context.Background(), p, materializeCap, 1)
			if err == nil && a.Rep() != serve.RepImplicit {
				usageError("%s has no implicit codec for this configuration; -impl=implicit does not apply", a.Name)
			}
		default:
			a, err = serve.BuildArtifact(context.Background(), p, materializeCap)
		}
		fail(err)
		doc, err := serve.ComputeMetrics(context.Background(), a, *diameter)
		fail(err)
		fail(doc.WriteJSON(os.Stdout))
		return
	}

	switch p.Net {
	case "hsn", "ring-cn", "complete-cn", "sfn", "hcn", "rcc":
		runSuperIPG(p.Net, *l, *nucName, *sched, *diameter, *dotFile)
	case "hypercube":
		h := topology.NewHypercube(*dim)
		c, err := mcmp.ClusterHypercube(h, *logm)
		fail(err)
		a, err := mcmp.Analyze(c, mcmp.HypercubeBisection(c), float64(c.M))
		fail(err)
		printAnalysis(a, h.G.Diameter())
	case "torus":
		tr := topology.NewTorus(*k, 2)
		c, err := mcmp.ClusterTorus2D(tr, *side)
		fail(err)
		a, err := mcmp.Analyze(c, mcmp.Torus2DBisection(tr, c, *side), float64(c.M))
		fail(err)
		printAnalysis(a, tr.G.Diameter())
	case "ccc":
		cc := topology.NewCCC(*dim)
		c, err := mcmp.ClusterCCC(cc)
		fail(err)
		a, err := mcmp.Analyze(c, mcmp.CCCBisection(cc, c), float64(c.M))
		fail(err)
		printAnalysis(a, cc.G.Diameter())
	case "butterfly":
		bf := topology.NewButterfly(*dim)
		c, err := mcmp.ClusterButterfly(bf, *band)
		fail(err)
		sideB, err := mcmp.ButterflyBisection(bf, c, *band)
		fail(err)
		a, err := mcmp.Analyze(c, sideB, float64(c.M))
		fail(err)
		printAnalysis(a, bf.G.Diameter())
	}
}

func runSuperIPG(family string, l int, nucName string, sched, diameter bool, dotFile string) {
	nuc, err := nucleus.Parse(nucName)
	fail(err)
	var w *superipg.Network
	switch family {
	case "hsn":
		w = superipg.HSN(l, nuc)
	case "ring-cn":
		w = superipg.RingCN(l, nuc)
	case "complete-cn":
		w = superipg.CompleteCN(l, nuc)
	case "sfn":
		w = superipg.SFN(l, nuc)
	case "hcn":
		w = superipg.HSN(2, nuc)
		w.Family = "HCN"
	case "rcc":
		w = superipg.RCC(l, nuc)
	}
	fmt.Printf("network:   %s\n", w.Name())
	fmt.Printf("nodes:     %d (M=%d, l=%d)\n", w.N(), w.M(), w.L)
	fmt.Printf("seed:      %s\n", w.Seed().GroupedString(w.SymbolLen()))
	fmt.Printf("gens:      %d nucleus + %d super\n", w.NumNucGens(), w.NumSupers())
	if t, err := w.InterclusterT(); err == nil {
		fmt.Printf("intercluster diameter t (Thm 4.1): %d  (closed form l-1 = %d)\n", t, w.L-1)
	}
	if ts, err := w.SymmetricTS(); err == nil {
		fmt.Printf("symmetric t_S (Thm 4.3):           %d\n", ts)
	}
	if w.N() <= materializeCap {
		g, err := w.Build()
		fail(err)
		u := w.Undirected(g)
		min, max, avg := u.DegreeStats()
		fmt.Printf("materialized: %d nodes, %d links, degree min/avg/max = %d/%.2f/%d\n",
			g.N(), u.M(), min, avg, max)
		fmt.Printf("intercluster links: %d, intercluster degree: %.4g\n",
			w.InterclusterLinks(g), w.InterclusterDegree(g))
		icDiam, icAvg, err := w.InterclusterDistances(context.Background(), g)
		fail(err)
		fmt.Printf("measured intercluster diameter: %d, avg intercluster distance: %.4g\n", icDiam, icAvg)
		if diameter {
			d, _, err := graph.Distances(context.Background(), u)
			fail(err)
			fmt.Printf("graph diameter: %d\n", d)
		}
		if dotFile != "" {
			f, err := os.Create(dotFile)
			fail(err)
			clusterOf, _ := w.Clusters(g)
			err = u.WriteDOT(f, w.Name(), clusterOf, func(v int) string {
				return g.Label(v).GroupedString(w.SymbolLen())
			})
			fail(err)
			fail(f.Close())
			fmt.Printf("wrote DOT to %s\n", dotFile)
		}
	} else {
		fmt.Printf("(too large to materialize; label-level metrics only)\n")
	}
	if sched {
		s, err := schedule.Build(w)
		fail(err)
		fail(s.Verify())
		_, avgU := s.Utilization()
		fmt.Printf("\nall-port emulation schedule (Theorem 3.8), %d steps, %.1f%% link utilization:\n%s",
			s.T, 100*avgU, s.Render())
	}
}

func printAnalysis(a mcmp.Analysis, diameter int) {
	tb := analysis.NewTable("MCMP profile (unit chip capacity, w=1)",
		"metric", "value")
	tb.AddRow("network", a.Name)
	tb.AddRow("nodes", a.N)
	tb.AddRow("chips", a.Chips)
	tb.AddRow("nodes/chip", a.M)
	tb.AddRow("diameter", diameter)
	tb.AddRow("off-chip links", a.OffChipLinks)
	tb.AddRow("links/chip", a.LinksPerChip)
	tb.AddRow("intercluster degree", a.InterclusterDeg)
	tb.AddRow("intercluster diameter", a.InterclusterDiam)
	tb.AddRow("avg intercluster distance", a.AvgInterclusterDst)
	tb.AddRow("per-link bandwidth", a.PerLinkBW)
	tb.AddRow("bisection width", a.BisectionWidth)
	tb.AddRow("bisection bandwidth", a.BisectionBandwidth)
	fmt.Print(tb)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ipgtool: "+format+"\n", args...)
	fmt.Fprintf(os.Stderr, "run `ipgtool -h` for usage\n")
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipgtool: %v\n", err)
		os.Exit(1)
	}
}
