package ipg_test

import (
	"testing"

	"ipg/internal/ipg"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

// TestSuperIPGsMatchReference compares the arena closure with the
// map-based reference on the super-IPGs of the golden families (HSN,
// ring-CN, complete-CN and SFN with l = 3 over Q2), on HCN(2,Q2) and
// RCC(2,Q2), on complete-CN(6,Q2), whose 4,096 nodes regrow the label
// table seven times, and on super-IPGs over C5 (3-bit symbols) and
// GHC(3,2) (2-bit symbols).
func TestSuperIPGsMatchReference(t *testing.T) {
	q2 := nucleus.Hypercube(2)
	c5, err := nucleus.Parse("c5")
	if err != nil {
		t.Fatal(err)
	}
	ghc, err := nucleus.Parse("ghc:3,2")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*superipg.Network{
		superipg.HSN(3, q2), superipg.RingCN(3, q2), superipg.CompleteCN(3, q2), superipg.SFN(3, q2),
		superipg.HCN(2), superipg.RCC(2, q2), superipg.CompleteCN(6, q2),
		superipg.HSN(3, c5), superipg.SFN(4, c5), superipg.RingCN(3, ghc), superipg.CompleteCN(3, ghc),
	} {
		ipg.CheckAgainstReference(t, w.Spec())
	}
}

// TestNodeIDAllocationFree holds NodeID to zero allocations on the
// closure of HSN(3,Q4): a label lookup hashes the label in place, so
// concurrent callers can share the graph.
func TestNodeIDAllocationFree(t *testing.T) {
	g := ipg.MustBuild(superipg.HSN(3, nucleus.Hypercube(4)).Spec())
	lbl := g.Label(g.N() - 1)
	allocs := testing.AllocsPerRun(100, func() {
		if g.NodeID(lbl) != g.N()-1 {
			t.Fatal("NodeID does not invert Label")
		}
	})
	if allocs != 0 {
		t.Errorf("NodeID makes %v allocations, want 0", allocs)
	}
}

// digitRuleCases are the networks the digit rule is checked on: HSN,
// ring-CN, complete-CN, SFN and directed-CN over eight nuclei at l = 2
// and 3, and the recursive and product constructions, 89 in all.
func digitRuleCases(t *testing.T) []*superipg.Network {
	var out []*superipg.Network
	for _, spec := range []string{"q2", "q3", "q4", "fq3", "k4", "c5", "s3", "ghc:3,2"} {
		for l := 2; l <= 3; l++ {
			for _, family := range []func(int, *nucleus.Nucleus) *superipg.Network{
				superipg.HSN, superipg.RingCN, superipg.CompleteCN, superipg.SFN, superipg.DirectedCN,
			} {
				nuc, err := nucleus.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, family(l, nuc))
			}
		}
	}
	q2 := nucleus.Hypercube(2)
	return append(out,
		superipg.HCN(3), superipg.HCN(4), superipg.RCC(2, q2), superipg.RCC(3, q2),
		superipg.RHSN(2, 2, q2), superipg.RHSN(2, 2, nucleus.Complete(3)), superipg.HFN(3), superipg.HFN(4),
		superipg.HSN(2, nucleus.Product(q2, nucleus.Complete(3))))
}

// TestDigitRuleMatchesReference checks the digit rule, by which every
// super-IPG gets its adjacency, against the map-based reference closure
// relabeled by AddressOf: the same nodes, with node 0 the seed, and the
// same node behind every port, self-loops included, both in a built
// Graph and in the rows of the implicit codec.  It also checks that the
// clusters v / M are exactly the classes of nodes sharing every group
// beyond the first.
func TestDigitRuleMatchesReference(t *testing.T) {
	cases := digitRuleCases(t)
	if len(cases) != 89 {
		t.Fatalf("%d cases, want 89", len(cases))
	}
	for _, w := range cases {
		labels, adj := ipg.ReferenceBuild(w.Spec())
		g, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		im, err := w.Implicit()
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if g.N() != len(labels) || im.N() != len(labels) {
			t.Fatalf("%s: %d nodes built and %d implicit, reference has %d", w.Name(), g.N(), im.N(), len(labels))
		}
		if !g.Label(0).Equal(w.Seed()) || g.NodeID(w.Seed()) != 0 {
			t.Fatalf("%s: node 0 is %v, not the seed %v", w.Name(), g.Label(0), w.Seed())
		}
		addr := make([]int, len(labels))
		for v, l := range labels {
			if addr[v] = g.NodeID(l); addr[v] < 0 || !g.Label(addr[v]).Equal(l) {
				t.Fatalf("%s: reference node %d (%v) has address %d", w.Name(), v, l, addr[v])
			}
		}
		clusterOf, nc := w.Clusters(g)
		byKey, byCluster := map[string]int32{}, map[int32]string{}
		for v, c := range clusterOf {
			key := w.ClusterKey(g.Label(v))
			if k, ok := byCluster[c]; ok && k != key {
				t.Fatalf("%s: cluster %d holds suffixes %q and %q", w.Name(), c, k, key)
			}
			if d, ok := byKey[key]; ok && d != c {
				t.Fatalf("%s: suffix %q lies in clusters %d and %d", w.Name(), key, d, c)
			}
			byKey[key], byCluster[c] = c, key
		}
		if len(byKey) != nc {
			t.Fatalf("%s: %d clusters, %d suffixes", w.Name(), nc, len(byKey))
		}
		ng := g.NumGens()
		var row []int32
		for v := range labels {
			a := addr[v]
			row = im.Codec().AppendNeighbors(a, row[:0])
			for gi := range ng {
				want := addr[adj[v*ng+gi]]
				if got := g.Neighbor(a, gi); got != want {
					t.Fatalf("%s: port %d of node %d leads to %d, reference %d", w.Name(), gi, a, got, want)
				}
				if int(row[gi]) != want {
					t.Fatalf("%s: implicit port %d of node %d leads to %d, reference %d", w.Name(), gi, a, row[gi], want)
				}
			}
		}
	}
}
