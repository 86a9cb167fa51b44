package superipg

import (
	"testing"

	"ipg/internal/nucleus"
)

// TestBuildAllocations holds the materialization of HSN(3,Q4) (4,096
// nodes) to a bounded number of allocations: the label arena, its table
// and the adjacency each grow by doubling or by append's growth steps,
// instead of one label and one map entry per node.
func TestBuildAllocations(t *testing.T) {
	w := HSN(3, nucleus.Hypercube(4))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := w.Build(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("Build(HSN(3,Q4)) makes %v allocations, want at most 64", allocs)
	}
}
