package fault_test

import (
	"context"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/graph"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
	"ipg/internal/topology"
)

// goldenFamily mirrors the 8 golden families of csr_equivalence_test.go:
// the degraded-metrics property tests must hold on every one of them.
type goldenFamily struct {
	name  string
	build func() *graph.Graph
}

func goldenFamilies() []goldenFamily {
	q2 := func() *nucleus.Nucleus { return nucleus.Hypercube(2) }
	return []goldenFamily{
		{"HSN(3,Q2)", func() *graph.Graph { return superipg.HSN(3, q2()).MustBuild().Undirected() }},
		{"ring-CN(3,Q2)", func() *graph.Graph { return superipg.RingCN(3, q2()).MustBuild().Undirected() }},
		{"complete-CN(3,Q2)", func() *graph.Graph { return superipg.CompleteCN(3, q2()).MustBuild().Undirected() }},
		{"SFN(3,Q2)", func() *graph.Graph { return superipg.SFN(3, q2()).MustBuild().Undirected() }},
		{"Q6", func() *graph.Graph { return topology.NewHypercube(6).G }},
		{"8-ary 2-cube", func() *graph.Graph { return topology.NewTorus(8, 2).G }},
		{"CCC(3)", func() *graph.Graph { return topology.NewCCC(3).G }},
		{"WBF(3)", func() *graph.Graph { return topology.NewButterfly(3).G }},
	}
}

// rebuildDegraded reconstructs the alive subgraph from scratch as a fresh
// graph with relabeled vertices — the brute-force comparator for every
// masked-kernel result.  It returns the rebuilt graph and the old->new id
// map (-1 for dead vertices).
func rebuildDegraded(c *topo.CSR, set *fault.Set) (*graph.Graph, []int32) {
	n := c.N()
	newID := make([]int32, n)
	alive := 0
	for v := 0; v < n; v++ {
		if set.VertexDead(v) {
			newID[v] = -1
			continue
		}
		newID[v] = int32(alive)
		alive++
	}
	g := graph.FromStream(alive, func(edge func(u, v int)) {
		for u := 0; u < n; u++ {
			if newID[u] < 0 {
				continue
			}
			first := c.RowStart(u)
			for j, w := range c.Row(u) {
				if int(w) <= u || newID[w] < 0 || topo.Bit(set.ADead, first+j) {
					continue
				}
				edge(int(newID[u]), int(newID[w]))
			}
		}
	})
	return g, newID
}

// bruteComponents labels components of the rebuilt graph by BFS flood and
// returns the per-vertex component id and the component sizes.
func bruteComponents(g *graph.Graph) ([]int, []int) {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	var buf []int32
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := len(sizes)
		queue := []int{v}
		comp[v] = id
		size := 0
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			buf = g.NeighborsInto(u, buf)
			for _, w := range buf {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, int(w))
				}
			}
		}
		sizes = append(sizes, size)
	}
	return comp, sizes
}

// subgraphOf extracts the component with the given id as a fresh graph.
func subgraphOf(g *graph.Graph, comp []int, id int) *graph.Graph {
	newID := make([]int, g.N())
	cnt := 0
	for v := range newID {
		if comp[v] == id {
			newID[v] = cnt
			cnt++
		} else {
			newID[v] = -1
		}
	}
	return graph.FromStream(cnt, func(edge func(u, v int)) {
		g.Edges(func(u, v int) {
			if newID[u] >= 0 && newID[v] >= 0 {
				edge(newID[u], newID[v])
			}
		})
	})
}

// checkAgainstBrute verifies a Report against the rebuilt-from-scratch
// graph: component census, whole-subgraph diameter/avg (with the shared
// -1-when-disconnected convention, bit-identical floats), and the
// largest-component metrics.
func checkAgainstBrute(t *testing.T, c *topo.CSR, set *fault.Set, rep *fault.Report) {
	t.Helper()
	g, _ := rebuildDegraded(c, set)
	if rep.Alive != g.N() {
		t.Fatalf("alive = %d, rebuilt has %d vertices", rep.Alive, g.N())
	}
	if rep.Alive == 0 {
		return
	}
	comp, sizes := bruteComponents(g)
	if rep.Components != len(sizes) {
		t.Fatalf("components = %d, brute force found %d", rep.Components, len(sizes))
	}
	giant, giantSize := 0, 0
	for id, sz := range sizes {
		if sz > giantSize {
			giant, giantSize = id, sz
		}
	}
	if rep.LargestComponent != giantSize {
		t.Fatalf("largest component = %d, brute force found %d", rep.LargestComponent, giantSize)
	}
	if d := g.Diameter(); rep.Diameter != d {
		t.Fatalf("degraded diameter = %d, rebuilt graph gives %d", rep.Diameter, d)
	}
	if a := g.AverageDistance(); rep.AvgDistance != a {
		t.Fatalf("degraded avg distance = %v, rebuilt graph gives %v", rep.AvgDistance, a)
	}
	gg := subgraphOf(g, comp, giant)
	if d := gg.Diameter(); rep.GiantDiameter != d {
		t.Fatalf("giant diameter = %d, rebuilt component gives %d", rep.GiantDiameter, d)
	}
	if a := gg.AverageDistance(); rep.GiantAvgDistance != a {
		t.Fatalf("giant avg distance = %v, rebuilt component gives %v", rep.GiantAvgDistance, a)
	}
}

// TestZeroFaultsBitIdentical: a DegradedView with an empty fault set must
// reproduce the undegraded sweep bit for bit on every golden family.
func TestZeroFaultsBitIdentical(t *testing.T) {
	for _, fam := range goldenFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			g := fam.build()
			c := g.CSR()
			set, err := fault.New(c, fault.Spec{Mode: fault.Links, Count: 0, Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := fault.NewDegradedView(c, set)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := dv.Analyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Alive != g.N() || rep.Components != 1 {
				t.Fatalf("zero faults: alive = %d components = %d, want %d and 1", rep.Alive, rep.Components, g.N())
			}
			if d := g.Diameter(); rep.Diameter != d || rep.GiantDiameter != d {
				t.Fatalf("zero faults: diameter = %d (giant %d), want %d", rep.Diameter, rep.GiantDiameter, d)
			}
			if a := g.AverageDistance(); rep.AvgDistance != a || rep.GiantAvgDistance != a {
				t.Fatalf("zero faults: avg = %v (giant %v), want %v", rep.AvgDistance, rep.GiantAvgDistance, a)
			}
		})
	}
}

// TestDegradedMatchesBruteForce: for every golden family, failure mode,
// and a handful of seeds, the masked sweep must match a brute-force
// recomputation on a graph rebuilt from scratch without the failed
// elements.
func TestDegradedMatchesBruteForce(t *testing.T) {
	modes := []fault.Mode{fault.Nodes, fault.Links, fault.Adversarial}
	for _, fam := range goldenFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			g := fam.build()
			c := g.CSR()
			n, m := g.N(), g.M()
			for _, mode := range modes {
				counts := []int{1, n / 16, n / 4}
				if mode != fault.Nodes {
					counts = []int{1, m / 10, m / 3}
				}
				for _, count := range counts {
					if count < 1 {
						count = 1
					}
					for seed := int64(1); seed <= 3; seed++ {
						set, err := fault.New(c, fault.Spec{Mode: mode, Count: count, Seed: seed}, nil)
						if err != nil {
							t.Fatal(err)
						}
						dv, err := fault.NewDegradedView(c, set)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := dv.Analyze(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						checkAgainstBrute(t, c, set, rep)
					}
				}
			}
		})
	}
}

// TestChipFaults exercises the MCMP chip-failure mode: killing clusters
// removes all their vertices, and the per-nucleus reachability fields
// agree with a direct recount.
func TestChipFaults(t *testing.T) {
	g := topology.NewHypercube(6).G
	c := g.CSR()
	clusterOf := make([]int32, g.N())
	for v := range clusterOf {
		clusterOf[v] = int32(v >> 2) // 16 chips of 4 nodes
	}
	for seed := int64(1); seed <= 4; seed++ {
		set, err := fault.New(c, fault.Spec{Mode: fault.Chips, Count: 5, Seed: seed}, clusterOf)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.DeadChips) != 5 || len(set.DeadVertices) != 20 {
			t.Fatalf("seed %d: %d chips, %d vertices dead; want 5 and 20", seed, len(set.DeadChips), len(set.DeadVertices))
		}
		for _, v := range set.DeadVertices {
			found := false
			for _, ch := range set.DeadChips {
				if clusterOf[v] == ch {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: dead vertex %d not on a dead chip", seed, v)
			}
		}
		dv, err := fault.NewDegradedView(c, set)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dv.WithClusters(clusterOf).Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, c, set, rep)
		if rep.ChipsTotal != 16 || rep.ChipsDead != 5 {
			t.Fatalf("seed %d: chips total %d dead %d, want 16 and 5", seed, rep.ChipsTotal, rep.ChipsDead)
		}
		if rep.ChipsReachable < 1 || rep.ChipsReachable > 11 {
			t.Fatalf("seed %d: chips reachable = %d out of range", seed, rep.ChipsReachable)
		}
	}
}

// TestAdversarialCutDisconnects: an adversarial budget equal to the
// minimum degree must disconnect a vertex (it cuts an entire edge
// neighborhood first), which uniform random faults of the same budget
// essentially never do on these families.
func TestAdversarialCutDisconnects(t *testing.T) {
	g := topology.NewHypercube(6).G
	c := g.CSR()
	set, err := fault.New(c, fault.Spec{Mode: fault.Adversarial, Count: 6, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := fault.NewDegradedView(c, set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dv.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 2 || rep.LargestComponent != 63 {
		t.Fatalf("adversarial cut of 6 edges on Q6: components = %d largest = %d, want 2 and 63", rep.Components, rep.LargestComponent)
	}
	if rep.Diameter != -1 || rep.AvgDistance != -1 {
		t.Fatalf("disconnected degraded metrics = %d/%v, want -1/-1", rep.Diameter, rep.AvgDistance)
	}
	checkAgainstBrute(t, c, set, rep)
}

// TestVTShortcutDisabled: the degraded view of a vertex-transitive family
// must not advertise symmetry (faults break it), and its sweep must agree
// with brute force — which a single-source shortcut would not.
func TestVTShortcutDisabled(t *testing.T) {
	g := topology.NewHypercube(6).G
	if !g.VertexTransitive() {
		t.Fatal("Q6 should be marked vertex-transitive")
	}
	c := g.CSR()
	set, err := fault.New(c, fault.Spec{Mode: fault.Links, Count: 10, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := fault.NewDegradedView(c, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(dv).(topo.Symmetric); ok {
		t.Fatal("DegradedView must not implement topo.Symmetric: faults break vertex transitivity")
	}
	var _ topo.Source = dv // the masked view still serves the Source interface
	rep, err := dv.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBrute(t, c, set, rep)
}

// TestDeterministicSampling: the same spec yields the same fault set.
func TestDeterministicSampling(t *testing.T) {
	g := topology.NewTorus(8, 2).G
	c := g.CSR()
	for _, mode := range []fault.Mode{fault.Nodes, fault.Links, fault.Adversarial} {
		a, err := fault.New(c, fault.Spec{Mode: mode, Count: 9, Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fault.New(c, fault.Spec{Mode: mode, Count: 9, Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.DeadVertices) != len(b.DeadVertices) || len(a.DeadEdges) != len(b.DeadEdges) {
			t.Fatalf("%s: nondeterministic sampling", mode)
		}
		for i := range a.DeadVertices {
			if a.DeadVertices[i] != b.DeadVertices[i] {
				t.Fatalf("%s: nondeterministic vertex sample", mode)
			}
		}
		for i := range a.DeadEdges {
			if a.DeadEdges[i] != b.DeadEdges[i] {
				t.Fatalf("%s: nondeterministic edge sample", mode)
			}
		}
	}
}

// TestSpecValidation pins the error paths: counts that would kill
// everything, missing cluster maps, unknown modes.
func TestSpecValidation(t *testing.T) {
	g := topology.NewHypercube(3).G
	c := g.CSR()
	cases := []struct {
		spec      fault.Spec
		clusterOf []int32
	}{
		{fault.Spec{Mode: fault.Nodes, Count: 8}, nil},
		{fault.Spec{Mode: fault.Links, Count: 13}, nil},
		{fault.Spec{Mode: fault.Nodes, Count: -1}, nil},
		{fault.Spec{Mode: fault.Chips, Count: 1}, nil},
		{fault.Spec{Mode: "bogus", Count: 1}, nil},
	}
	for _, tc := range cases {
		if _, err := fault.New(c, tc.spec, tc.clusterOf); err == nil {
			t.Fatalf("spec %+v: expected an error", tc.spec)
		}
	}
	if _, err := fault.ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus) should fail")
	}
	if m, err := fault.ParseMode(""); err != nil || m != fault.Nodes {
		t.Fatalf("ParseMode(\"\") = %v, %v; want node default", m, err)
	}
}
