package superipg

import (
	"fmt"

	"ipg/internal/topo"
)

// This file implements the implicit (codec-backed) adjacency of a
// super-IPG: vertex v is address v, as in a materialized Graph, and its
// row is the digit rule's (digits.go), formed from v's digits with no
// materialized closure and no label.  The codec keeps the rule's nucleus
// table, M x (nucleus generators) entries, whatever N is.
//
// Correctness rests on the invariant the closure tests check: the
// generator orbit of the seed is the full set of M^l l-tuples of nucleus
// labels (the paper's Property 1 of the CN/HSN/SFN constructions, since
// the super-generators permute whole groups and the nucleus generators
// reach every nucleus label inside a group).  The golden-family
// equivalence tests check implicit rows against the CSR rows bit for bit.

// superCodec implements topo.Codec over super-IPG addresses.
type superCodec struct {
	w *Network
	r *digitRule
}

// Implicit returns the codec-backed adjacency source of w.  It errors as
// Build does when the nucleus is not addressable, and when the address
// space exceeds the int32 vertex representation.
func (w *Network) Implicit() (*topo.Implicit, error) {
	r, err := w.digitRule()
	if err != nil {
		return nil, err
	}
	return topo.NewImplicit(&superCodec{w: w, r: r}), nil
}

func (c *superCodec) Name() string { return fmt.Sprintf("superipg(%s)", c.w.Name()) }

func (c *superCodec) N() int { return c.r.n }

func (c *superCodec) DegreeBound() int { return len(c.w.gens) }

// VertexTransitive is false: a super-IPG is not vertex-transitive in
// general, and the materialized path marks only its orbits (one node per
// cluster, see Network.Undirected), never a single one.  The codec does
// not carry those orbits: implicit super-IPG artifacts report no
// distance metrics.
func (c *superCodec) VertexTransitive() bool { return false }

func (c *superCodec) AppendNeighbors(v int, buf []int32) []int32 {
	var d [maxGroups]int32
	c.r.digits(v, d[:c.w.L])
	return c.r.appendRow(buf, v, d[:c.w.L])
}
