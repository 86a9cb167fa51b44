package topology

import (
	"context"
	"testing"

	"ipg/internal/graph"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// TestVertexTransitiveFamilies checks, for every family marked
// vertex-transitive, the property the single-source metric shortcut
// relies on: every vertex has the same eccentricity and the same distance
// sum.  It then cross-checks the shortcut itself — the parallel metrics
// (which take the single-source path for marked graphs) must equal the
// serial full-sweep reference exactly.
func TestVertexTransitiveFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", NewHypercube(4).G},
		{"4-ary 2-cube", NewTorus(4, 2).G},
		{"GHC(3,4)", NewGHCGraph(3, 4).G},
		{"CCC(4)", NewCCC(4).G},
		{"WBF(4)", NewButterfly(4).G},
	}
	for _, f := range families {
		if !f.g.VertexTransitive() {
			t.Errorf("%s: not marked vertex-transitive", f.name)
			continue
		}
		c := f.g.CSR()
		n := f.g.N()
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		ecc0, sum0, _ := topo.BFSSourceInto(c, 0, dist, queue, nil)
		for v := 1; v < n; v++ {
			ecc, sum, _ := topo.BFSSourceInto(c, v, dist, queue, nil)
			if ecc != ecc0 || sum != sum0 {
				t.Fatalf("%s: vertex %d has ecc=%d sum=%d, vertex 0 has ecc=%d sum=%d — not vertex-transitive",
					f.name, v, ecc, sum, ecc0, sum0)
			}
		}
		d, avg, err := graph.Distances(context.Background(), f.g)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.g.Diameter(); d != want {
			t.Errorf("%s: parallel diameter = %d, serial = %d", f.name, d, want)
		}
		if want := f.g.AverageDistance(); avg != want {
			t.Errorf("%s: parallel avg distance = %v, serial = %v", f.name, avg, want)
		}
	}
}

// TestNonTransitiveFamiliesUnmarked pins that families without a proven
// transitive construction stay on the full-sweep path: shuffle-exchange
// and de Bruijn graphs have fixed points / irregular neighborhoods and
// must never claim the shortcut.
func TestNonTransitiveFamiliesUnmarked(t *testing.T) {
	if NewShuffleExchange(4).G.VertexTransitive() {
		t.Error("shuffle-exchange marked vertex-transitive")
	}
	if NewDeBruijn(4).G.VertexTransitive() {
		t.Error("de Bruijn marked vertex-transitive")
	}
}

// TestAddEdgeClearsTransitivity pins that a mark never outlives the
// construction that proved it.  A Graph is immutable, so adding an edge
// to a marked graph builds a new graph from its edges plus one; that
// graph must be unmarked, or the shortcut would report the old graph's
// metrics.  It covers both marks: a vertex-transitive family and a
// super-IPG view marked with one orbit representative per cluster.
func TestAddEdgeClearsTransitivity(t *testing.T) {
	plusEdge := func(g *graph.Graph, u, v int) *graph.Graph {
		return graph.FromStream(g.N(), func(edge func(u, v int)) {
			g.Edges(edge)
			edge(u, v)
		})
	}
	h := NewHypercube(3)
	if !h.G.VertexTransitive() {
		t.Fatal("Q3 not marked")
	}
	g := plusEdge(h.G, 0, 3)
	if g.VertexTransitive() || g.M() != h.G.M()+1 {
		t.Errorf("Q3 plus an edge: vertex-transitive %v, %d edges; want false, %d", g.VertexTransitive(), g.M(), h.G.M()+1)
	}
	if got, _, _ := graph.Distances(context.Background(), g); got != g.Diameter() {
		t.Errorf("after adding an edge: parallel diameter = %d, serial = %d", got, g.Diameter())
	}

	w := superipg.HSN(3, nucleus.Hypercube(2))
	u := w.Undirected(w.MustBuild())
	if len(u.Orbits()) != 16 || u.VertexTransitive() {
		t.Fatalf("HSN(3,Q2) view: %d representatives, vertex-transitive %v; want 16, false", len(u.Orbits()), u.VertexTransitive())
	}
	v := 1
	for u.HasEdge(0, v) {
		v++
	}
	u = plusEdge(u, 0, v)
	if u.Orbits() != nil {
		t.Error("orbit mark survived an added edge")
	}
	d, avg, err := graph.Distances(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if d != u.Diameter() || avg != u.AverageDistance() {
		t.Errorf("after adding an edge: parallel (%d, %v), serial (%d, %v)", d, avg, u.Diameter(), u.AverageDistance())
	}
}
