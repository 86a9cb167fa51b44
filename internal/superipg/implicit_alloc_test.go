//go:build !race

// The race detector makes sync.Pool drop Puts at random, so allocation
// counts of the pooled codec scratch are only meaningful without it.

package superipg

import (
	"testing"

	"ipg/internal/nucleus"
)

// TestCodecRowsAllocationFree pins the implicit super-IPG rows at zero
// allocations once the pooled label scratch exists, on the codecs of
// HSN(7,Q2) and SFN(5,Q3), the two implicit super-IPG keys of perfbench's
// cold-sweep workload: unranking a group appends into the scratch label
// (nucleus.AppendLabel) instead of building a fresh one.
func TestCodecRowsAllocationFree(t *testing.T) {
	for _, w := range []*Network{HSN(7, nucleus.Hypercube(2)), SFN(5, nucleus.Hypercube(3))} {
		im, err := w.Implicit()
		if err != nil {
			t.Fatal(err)
		}
		codec := im.Codec()
		buf := make([]int32, 0, codec.DegreeBound())
		v := 0
		allocs := testing.AllocsPerRun(200, func() {
			buf = codec.AppendNeighbors(v, buf[:0])
			v = (v*7919 + 12345) % codec.N()
		})
		if allocs != 0 {
			t.Errorf("%s: AppendNeighbors makes %v allocations per row, want 0", w.Name(), allocs)
		}
	}
}
