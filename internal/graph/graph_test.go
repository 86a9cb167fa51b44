package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fromEdges builds a graph on n vertices from an edge list.
func fromEdges(n int, edges ...[2]int) *Graph {
	return FromStream(n, func(edge func(u, v int)) {
		for _, e := range edges {
			edge(e[0], e[1])
		}
	})
}

// ring returns the cycle graph C_n.
func ring(n int) *Graph {
	return FromStream(n, func(edge func(u, v int)) {
		for i := 0; i < n; i++ {
			edge(i, (i+1)%n)
		}
	})
}

// complete returns K_n.
func complete(n int) *Graph {
	return FromStream(n, func(edge func(u, v int)) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edge(i, j)
			}
		}
	})
}

func TestBasicEdgeOps(t *testing.T) {
	// The duplicate {1,0} and the self-loop {2,2} collapse.
	g := fromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 0}, [2]int{2, 2})
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(2, 1) || g.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
	if d := len(g.NeighborsInto(1, nil)); d != 2 {
		t.Errorf("Degree(1) = %d", d)
	}
}

func TestRingMetrics(t *testing.T) {
	g := ring(8)
	if !g.Connected() {
		t.Fatal("ring should be connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("C8 diameter = %d, want 4", d)
	}
	if reg, d := g.IsRegular(); !reg || d != 2 {
		t.Errorf("C8 regularity = %v,%d", reg, d)
	}
	// Average distance over ordered pairs incl. self: (0+1+1+2+2+3+3+4)/8 = 2.
	if a := g.AverageDistance(); a != 2.0 {
		t.Errorf("C8 avg distance = %v, want 2", a)
	}
}

func TestCompleteMetrics(t *testing.T) {
	g := complete(5)
	if g.M() != 10 {
		t.Errorf("K5 edges = %d", g.M())
	}
	if d := g.Diameter(); d != 1 {
		t.Errorf("K5 diameter = %d", d)
	}
}

func TestDisconnected(t *testing.T) {
	g := fromEdges(4, [2]int{0, 1}, [2]int{2, 3})
	if g.Connected() {
		t.Error("should be disconnected")
	}
	if g.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
	if g.AverageDistance() != -1 {
		t.Error("avg distance of disconnected graph should be -1")
	}
	if g.Eccentricity(0) != -1 {
		t.Error("eccentricity should be -1 when unreachable vertices exist")
	}
}

func TestBFSDistances(t *testing.T) {
	g := ring(6)
	d := g.BFS(0)
	want := []int32{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestCartesianProduct(t *testing.T) {
	// C4 x C4 is the 4-ary 2-cube: 16 vertices, 32 edges, diameter 4.
	g := CartesianProduct(ring(4), ring(4))
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("C4xC4: n=%d m=%d", g.N(), g.M())
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("C4xC4 diameter = %d, want 4", d)
	}
	if reg, deg := g.IsRegular(); !reg || deg != 4 {
		t.Errorf("C4xC4 degree = %v,%d", reg, deg)
	}
}

func TestPowerIsHypercube(t *testing.T) {
	// K2^d is the d-cube.
	for d := 1; d <= 6; d++ {
		g := Power(complete(2), d)
		if g.N() != 1<<d {
			t.Fatalf("K2^%d has %d vertices", d, g.N())
		}
		if g.M() != d*(1<<d)/2 {
			t.Fatalf("K2^%d has %d edges, want %d", d, g.M(), d*(1<<d)/2)
		}
		if diam := g.Diameter(); diam != d {
			t.Fatalf("K2^%d diameter = %d", d, diam)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := fromEdges(3, [2]int{0, 1})
	min, max, avg := g.DegreeStats()
	if min != 0 || max != 1 || avg != 2.0/3.0 {
		t.Errorf("stats = %d,%d,%v", min, max, avg)
	}
}

func TestCutSizeAndBisection(t *testing.T) {
	// 6-cycle with alternating sides: every edge cut.
	g := ring(6)
	side := []int8{0, 1, 0, 1, 0, 1}
	if c := g.CutSize(side); c != 6 {
		t.Errorf("alternating cut = %d, want 6", c)
	}
	// Contiguous halves: exactly 2 edges cut — the true bisection width.
	side = []int8{0, 0, 0, 1, 1, 1}
	if c := g.CutSize(side); c != 2 {
		t.Errorf("contiguous cut = %d, want 2", c)
	}
	if !IsBisection(side) {
		t.Error("contiguous halves are a bisection")
	}
	if IsBisection([]int8{0, 0, 0, 0, 1, 1}) {
		t.Error("4/2 split is not a bisection")
	}
}

func TestRefineBisectionFindsRingCut(t *testing.T) {
	g := ring(16)
	r := rand.New(rand.NewSource(7))
	_, cut := g.BestBisection(r, 30, 100)
	if cut != 2 {
		t.Errorf("refined ring bisection = %d, want 2", cut)
	}
}

func TestRefinePreservesBalance(t *testing.T) {
	g := Power(complete(2), 5)
	r := rand.New(rand.NewSource(3))
	side, cut := g.BestBisection(r, 10, 200)
	if !IsBisection(side) {
		t.Fatal("refiner broke balance")
	}
	// Hypercube Q5 bisection width is 16; refiner must not report less.
	if cut < 16 {
		t.Errorf("refiner found impossible cut %d < 16 for Q5", cut)
	}
	// Structured seed should lock in the optimum.
	seed := make([]int8, g.N())
	for v := range seed {
		seed[v] = int8(v >> 4 & 1)
	}
	_, cut = g.BestBisection(r, 0, 10, seed)
	if cut != 16 {
		t.Errorf("structured Q5 bisection = %d, want 16", cut)
	}
}

func TestQuickProductSize(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw%5) + 2
		b := int(bRaw%5) + 2
		p := CartesianProduct(ring(a), ring(b))
		wantM := a * b * 2 // each vertex degree 4 (degree 2+2), edges = 4ab/2
		if a == 2 {
			wantM -= b // C2 collapses to a single edge
		}
		if b == 2 {
			wantM -= a
		}
		return p.N() == a*b && p.M() == wantM
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a, b := ring(5), ring(5)
	if !Equal(a, b) {
		t.Error("identical rings should be Equal")
	}
	b = FromStream(5, func(edge func(u, v int)) {
		a.Edges(edge)
		edge(0, 2)
	})
	if Equal(a, b) {
		t.Error("different graphs Equal")
	}
}

func TestWriteDOT(t *testing.T) {
	g := ring(4)
	var buf bytes.Buffer
	clusterOf := []int32{0, 0, 1, 1}
	err := g.WriteDOT(&buf, "C4", clusterOf, func(v int) string { return fmt.Sprintf("n%d", v) })
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"C4\"", "subgraph cluster_0", "subgraph cluster_1", "color=red", "n3"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Off-chip edges: {1,2} and {3,0} -> two red edges.
	if got := strings.Count(out, "color=red"); got != 2 {
		t.Errorf("red edges = %d, want 2", got)
	}
	if err := g.WriteDOT(&buf, "bad", []int32{0}, nil); err == nil {
		t.Error("short clusterOf should error")
	}
	buf.Reset()
	if err := g.WriteDOT(&buf, "plain", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 -- 1") {
		t.Error("plain DOT missing edges")
	}
}
