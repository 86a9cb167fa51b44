package mcmp

import (
	"math"
	"testing"

	"ipg/internal/graph"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topology"
)

func TestWorkedExample12Cube(t *testing.T) {
	// Section 4.2: "a 12-cube with 16-node chips (for a total of 256
	// chips) has off-chip bandwidth w/8 per link and has bisection width
	// 2048 and bisection bandwidth 256w".  Chip budget C = 16w.
	const w = 1.0
	h := topology.NewHypercube(12)
	c, err := ClusterHypercube(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Chips != 256 || c.M != 16 {
		t.Fatalf("chips=%d M=%d", c.Chips, c.M)
	}
	a, err := Analyze(c, HypercubeBisection(c), 16*w)
	if err != nil {
		t.Fatal(err)
	}
	if a.LinksPerChip != 128 {
		t.Errorf("links/chip = %d, want 128", a.LinksPerChip)
	}
	if a.PerLinkBW != w/8 {
		t.Errorf("per-link bandwidth = %v, want w/8", a.PerLinkBW)
	}
	if a.BisectionWidth != 2048 {
		t.Errorf("bisection width = %d, want 2048", a.BisectionWidth)
	}
	if a.BisectionBandwidth != 256*w {
		t.Errorf("bisection bandwidth = %v, want 256w", a.BisectionBandwidth)
	}
	// Closed form agrees.
	if f := HypercubeBisectionBandwidth(4096, 16, w); math.Abs(f-256*w) > 1e-9 {
		t.Errorf("closed form = %v", f)
	}
	// "The average intercluster distance of a 12-cube is exactly 4 when a
	// cluster has 16 nodes."
	if _, got := c.InterclusterDistances(); got != 4.0 {
		t.Errorf("avg intercluster distance = %v, want 4", got)
	}
	if got := HypercubeAvgInterclusterDistance(4096, 16); got != 4.0 {
		t.Errorf("closed-form avg IC distance = %v", got)
	}
}

func TestWorkedExample10Cube(t *testing.T) {
	// "a 10-cube with 4-node chips (for a total of 256 chips too) has
	// off-chip bandwidth w/2 per link and has bisection width 512 and
	// bisection bandwidth 256w" — same chips, so the same budget C = 16w.
	const w = 1.0
	h := topology.NewHypercube(10)
	c, err := ClusterHypercube(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Chips != 256 {
		t.Fatalf("chips = %d", c.Chips)
	}
	a, err := Analyze(c, HypercubeBisection(c), 16*w)
	if err != nil {
		t.Fatal(err)
	}
	if a.PerLinkBW != w/2 {
		t.Errorf("per-link bandwidth = %v, want w/2", a.PerLinkBW)
	}
	if a.BisectionWidth != 512 {
		t.Errorf("bisection width = %d, want 512", a.BisectionWidth)
	}
	if a.BisectionBandwidth != 256*w {
		t.Errorf("bisection bandwidth = %v, want 256w", a.BisectionBandwidth)
	}
}

func TestWorkedExampleHSN3Q4(t *testing.T) {
	// "an HSN(3,Q4) with 16-node chips (for a total of 256 chips) has
	// off-chip bandwidth 8w/15 per link, has bisection width 1024 (without
	// cutting any nucleus), and has bisection bandwidth 8192w/15 > 512w".
	const w = 1.0
	net := superipg.HSN(3, nucleus.Hypercube(4))
	g := net.MustBuild()
	c, err := ClusterSuperIPG(net, g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Chips != 256 || c.M != 16 {
		t.Fatalf("chips=%d M=%d", c.Chips, c.M)
	}
	chipSide, err := SuperIPGBisection(net, g, c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, chipSide, 16*w)
	if err != nil {
		t.Fatal(err)
	}
	if a.LinksPerChip != 30 {
		t.Errorf("links/chip = %d, want 30", a.LinksPerChip)
	}
	if math.Abs(a.PerLinkBW-8.0/15.0) > 1e-12 {
		t.Errorf("per-link bandwidth = %v, want 8w/15", a.PerLinkBW)
	}
	if a.BisectionWidth != 1024 {
		t.Errorf("bisection width = %d, want 1024", a.BisectionWidth)
	}
	if math.Abs(a.BisectionBandwidth-8192.0/15.0) > 1e-9 {
		t.Errorf("bisection bandwidth = %v, want 8192w/15", a.BisectionBandwidth)
	}
	if a.BisectionBandwidth <= 512*w {
		t.Error("HSN bandwidth should exceed 512w (double the hypercube's)")
	}
	// Closed form of Corollary 4.8.
	if f := HSNBisectionBandwidth(4096, 16, 3, w); math.Abs(f-a.BisectionBandwidth) > 1e-9 {
		t.Errorf("closed form %v != measured %v", f, a.BisectionBandwidth)
	}
	// Theorem 4.7 lower bound holds and is tight here.
	lb := LowerBoundBisectionBandwidth(4096, w, a.AvgInterclusterDst)
	if a.BisectionBandwidth < lb-1e-9 {
		t.Errorf("bandwidth %v below Theorem 4.7 bound %v", a.BisectionBandwidth, lb)
	}
	if math.Abs(a.AvgInterclusterDst-HSNAvgInterclusterDistance(16, 3)) > 1e-12 {
		t.Errorf("avg IC distance = %v, want %v", a.AvgInterclusterDst, HSNAvgInterclusterDistance(16, 3))
	}
}

func TestTorusCorollary410(t *testing.T) {
	// 16-ary 2-cube with 4x4-node chips: W_B = 2k = 32, per-link w*sqrt(M)/4,
	// B_B = w*sqrt(N*M)/2 = 32w.
	const w = 1.0
	tor := topology.NewTorus(16, 2)
	c, err := ClusterTorus2D(tor, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, Torus2DBisection(tor, c, 4), 16*w)
	if err != nil {
		t.Fatal(err)
	}
	if a.BisectionWidth != 32 {
		t.Errorf("torus bisection width = %d, want 32", a.BisectionWidth)
	}
	if math.Abs(a.PerLinkBW-1.0) > 1e-12 { // w*sqrt(16)/4 = w
		t.Errorf("per-link = %v, want 1", a.PerLinkBW)
	}
	want := TorusBisectionBandwidth(256, 16, w)
	if math.Abs(a.BisectionBandwidth-want) > 1e-9 {
		t.Errorf("torus bandwidth = %v, want %v", a.BisectionBandwidth, want)
	}
}

func TestCCCClustering(t *testing.T) {
	const w = 1.0
	ccc := topology.NewCCC(4)
	c, err := ClusterCCC(ccc)
	if err != nil {
		t.Fatal(err)
	}
	if c.M != 4 || c.Chips != 16 {
		t.Fatalf("CCC chips=%d M=%d", c.Chips, c.M)
	}
	// Every node has exactly one off-chip (cube) link.
	if d := c.InterclusterDegree(); d != 1.0 {
		t.Errorf("CCC intercluster degree = %v, want 1", d)
	}
	a, err := Analyze(c, CCCBisection(ccc, c), 4*w)
	if err != nil {
		t.Fatal(err)
	}
	// Top-bit cut: 2^(d-1) = 8 cube links.
	if a.BisectionWidth != 8 {
		t.Errorf("CCC bisection width = %d, want 8", a.BisectionWidth)
	}
	// Per-link = C/4 = w: B_B = 8w = wN/(2d).
	if math.Abs(a.BisectionBandwidth-8*w) > 1e-9 {
		t.Errorf("CCC bandwidth = %v, want 8w", a.BisectionBandwidth)
	}
}

func TestButterflyClustering(t *testing.T) {
	const w = 1.0
	b := topology.NewButterfly(4)
	c, err := ClusterButterfly(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.M != 8 || c.Chips != 8 {
		t.Fatalf("WBF chips=%d M=%d", c.Chips, c.M)
	}
	// Links per chip: 2^(a+2) = 16; intercluster degree 4/a = 2.
	if d := c.InterclusterDegree(); d != 2.0 {
		t.Errorf("butterfly intercluster degree = %v, want 2", d)
	}
	side, err := ButterflyBisection(b, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, side, 8*w)
	if err != nil {
		t.Fatal(err)
	}
	// Two seams x 2^(d+1) = 64 links.
	if a.BisectionWidth != 64 {
		t.Errorf("butterfly band-cut width = %d, want 64", a.BisectionWidth)
	}
	// B_B = w*a*2^d = 2*16w = 32w.
	if math.Abs(a.BisectionBandwidth-32*w) > 1e-9 {
		t.Errorf("butterfly bandwidth = %v, want 32w", a.BisectionBandwidth)
	}
}

func TestCorollary411Optimality(t *testing.T) {
	// For l = 2 and l = 3, HSN/SFN bandwidth is within a factor < 2l-2 of
	// the trivial bound wN/2 (l=2: ratio < 2; l=3: ratio < 4).
	const w = 1.0
	for _, l := range []int{2, 3} {
		net := superipg.HSN(l, nucleus.Hypercube(3))
		g := net.MustBuild()
		c, err := ClusterSuperIPG(net, g)
		if err != nil {
			t.Fatal(err)
		}
		side, err := SuperIPGBisection(net, g, c)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(c, side, float64(c.M)*w)
		if err != nil {
			t.Fatal(err)
		}
		upper := TrivialUpperBoundBisectionBandwidth(g.N(), w)
		ratio := upper / a.BisectionBandwidth
		var bound float64
		if l == 2 {
			bound = 2
		} else {
			bound = 4
		}
		if ratio >= bound {
			t.Errorf("l=%d: ratio %v, want < %v", l, ratio, bound)
		}
	}
}

func TestSuperIPGBisectionCutsQuarter(t *testing.T) {
	// The group-2 partition cuts exactly N/4 links in HSN and SFN.
	for _, build := range []func() *superipg.Network{
		func() *superipg.Network { return superipg.HSN(3, nucleus.Hypercube(2)) },
		func() *superipg.Network { return superipg.SFN(3, nucleus.Hypercube(2)) },
	} {
		net := build()
		g := net.MustBuild()
		c, err := ClusterSuperIPG(net, g)
		if err != nil {
			t.Fatal(err)
		}
		side, err := SuperIPGBisection(net, g, c)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := c.ChipPartitionToNodes(side)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsBisection(nodes) {
			t.Fatalf("%s: group-2 split unbalanced", net.Name())
		}
		if cut := c.OffChipCut(nodes); cut != g.N()/4 {
			t.Errorf("%s: cut = %d, want N/4 = %d", net.Name(), cut, g.N()/4)
		}
	}
}

func TestRefinerCannotBeatStructuredHSNCut(t *testing.T) {
	// Sanity: local search from the structured partition does not find a
	// smaller off-chip... the refiner works on all links; here we check the
	// structured cut is at least locally minimal for the full graph.
	net := superipg.HSN(2, nucleus.Hypercube(2))
	g := net.MustBuild()
	u := g.Undirected()
	c, _ := ClusterSuperIPG(net, g)
	side, _ := SuperIPGBisection(net, g, c)
	nodes, _ := c.ChipPartitionToNodes(side)
	refined, cut := u.RefineBisection(nodes, 100)
	if !graph.IsBisection(refined) {
		t.Fatal("refiner broke balance")
	}
	if cut > u.CutSize(nodes) {
		t.Error("refiner made the cut worse")
	}
}

func TestNewClusteredValidation(t *testing.T) {
	g := graph.FromStream(4, func(edge func(u, v int)) { edge(0, 1) })
	if _, err := NewClustered("bad", g, []int32{0, 0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewClustered("bad", g, []int32{0, 0, 0, 1}); err == nil {
		t.Error("uneven chips should error")
	}
	if _, err := NewClustered("bad", g, []int32{0, 0, 5, 5}); err == nil {
		t.Error("non-dense ids should error")
	}
	if _, err := NewClustered("ok", g, []int32{0, 0, 1, 1}); err != nil {
		t.Errorf("valid clustering rejected: %v", err)
	}
}

func TestUnitNodeLinkWidthFactor(t *testing.T) {
	// Section 4.1: under unit node capacity, a link of an HSN(l,Q_n) has
	// bandwidth higher than an nl-cube's link by Theta(sqrt(log N)) when
	// l = Theta(n): per-link bw = w/degree, and degree(HSN) = n+l-1 vs
	// degree(cube) = n*l.
	for n := 2; n <= 6; n++ {
		l := n
		// Pure degree arithmetic (the networks would have up to 2^36
		// nodes); the generator-count degrees are what the paper's
		// argument uses.
		hsnDeg := float64(n + l - 1)
		cubeDeg := float64(n * l)
		factor := cubeDeg / hsnDeg
		// Theta(sqrt(log N)): sqrt(n*l) = n here; factor = n^2/(2n-1) ~ n/2.
		lo, hi := float64(n)/2.5, float64(n)
		if factor < lo || factor > hi {
			t.Errorf("n=l=%d: link width factor %v outside [%v,%v]", n, factor, lo, hi)
		}
	}
}

func TestModelString(t *testing.T) {
	if UnitChip.String() != "unit-chip" || UnitLink.String() != "unit-link" {
		t.Error("model names wrong")
	}
}

func TestIDAndIICost(t *testing.T) {
	if IDCost(2.5, 4) != 10 || IICost(1.5, 2) != 3 {
		t.Error("cost metrics wrong")
	}
}

func TestPerLinkBandwidthModels(t *testing.T) {
	h := topology.NewHypercube(4)
	c, err := ClusterHypercube(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bw, err := c.PerOffChipLinkBandwidth(UnitLink, 99); err != nil || bw != 1 {
		t.Errorf("unit-link = %v, %v", bw, err)
	}
	if bw, err := c.PerOffChipLinkBandwidth(UnitNode, 4); err != nil || bw != 1 {
		t.Errorf("unit-node = %v, %v (Q4 degree 4)", bw, err)
	}
	if _, err := c.PerOffChipLinkBandwidth(UnitBisection, 1); err == nil {
		t.Error("unit-bisection per-link should be undefined")
	}
}
