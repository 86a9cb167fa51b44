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

// TestNodeIDAllocationFree holds NodeID to zero allocations on HSN(3,Q4):
// HSNRouter and netsim's orbit maps call it once per node, and concurrent
// requests share the graph, so it packs its argument on its own stack.
func TestNodeIDAllocationFree(t *testing.T) {
	g := superipg.HSN(3, nucleus.Hypercube(4)).MustBuild()
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
