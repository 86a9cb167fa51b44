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
// RCC(2,Q2), and on complete-CN(6,Q2), whose 4,096 nodes regrow the
// label table seven times.
func TestSuperIPGsMatchReference(t *testing.T) {
	q2 := nucleus.Hypercube(2)
	for _, w := range []*superipg.Network{
		superipg.HSN(3, q2), superipg.RingCN(3, q2), superipg.CompleteCN(3, q2), superipg.SFN(3, q2),
		superipg.HCN(2), superipg.RCC(2, q2), superipg.CompleteCN(6, q2),
	} {
		ipg.CheckAgainstReference(t, w.Spec())
	}
}
