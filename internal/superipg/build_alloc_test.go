package superipg

import (
	"testing"

	"ipg/internal/nucleus"
)

// TestBuildAllocations holds the materialization of HSN(3,Q4) (4,096
// nodes) to a bounded number of allocations: the digit rule fills one
// adjacency array sized up front, with no label or map entry per node.
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
