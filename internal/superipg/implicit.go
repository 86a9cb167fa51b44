package superipg

import (
	"fmt"
	"sync"

	"ipg/internal/perm"
	"ipg/internal/topo"
)

// This file implements the implicit (codec-backed) adjacency of a
// super-IPG: vertex v is the mixed-radix address of AddressOf (group i
// weighted M^(i-1)), and the neighbors of v are computed by unranking v
// to its label, applying each generator, and ranking the results — no
// materialized closure, no arena, O(1) memory per family.
//
// Correctness rests on the same invariant Build verifies for
// materializable instances: the generator orbit of the seed is the full
// set of M^l l-tuples of nucleus labels (the paper's Property 1 of the
// CN/HSN/SFN constructions, since the super-generators permute whole
// groups and the nucleus generators reach every nucleus label inside a
// group).  The golden-family equivalence tests check implicit rows
// against address-relabeled CSR rows bit for bit.

// superCodec implements topo.Codec over super-IPG addresses.
type superCodec struct {
	w *Network
	n int
	// pool holds per-call label scratch so NeighborsInto is safe for the
	// concurrent workers of the parallel metric drivers.
	pool sync.Pool
}

type superScratch struct {
	cur perm.Label
	tmp perm.Label
}

// Implicit returns the codec-backed adjacency source of w.  It errors
// when the nucleus is not addressable (no rank/unrank bijection) or the
// address space exceeds the int32 vertex representation.
func (w *Network) Implicit() (*topo.Implicit, error) {
	if !w.Nuc.Addressable() {
		return nil, fmt.Errorf("superipg: nucleus %s is not addressable; no implicit adjacency", w.Nuc.Name)
	}
	n := 1
	for i := 0; i < w.L; i++ {
		if n > topo.MaxVertices/w.Nuc.M {
			return nil, fmt.Errorf("superipg: %s has more than %d nodes; addresses overflow int32", w.Name(), topo.MaxVertices)
		}
		n *= w.Nuc.M
	}
	c := &superCodec{w: w, n: n}
	c.pool.New = func() any {
		m := w.SymbolLen() * w.L
		return &superScratch{cur: make(perm.Label, 0, m), tmp: make(perm.Label, m)}
	}
	return topo.NewImplicit(c), nil
}

func (c *superCodec) Name() string { return fmt.Sprintf("superipg(%s)", c.w.Name()) }

func (c *superCodec) N() int { return c.n }

func (c *superCodec) DegreeBound() int { return len(c.w.gens) }

// VertexTransitive is false: a super-IPG is not vertex-transitive in
// general, and the materialized path marks only its orbits (one node per
// cluster, see Network.Undirected), never a single one.  The codec does
// not carry those orbits: implicit super-IPG artifacts report no
// distance metrics.
func (c *superCodec) VertexTransitive() bool { return false }

func (c *superCodec) AppendNeighbors(v int, buf []int32) []int32 {
	s := c.pool.Get().(*superScratch)
	s.cur = c.labelInto(v, s.cur)
	for _, g := range c.w.gens {
		g.P.ApplyInto(s.tmp, s.cur)
		u, err := c.w.AddressOf(s.tmp)
		if err != nil {
			// The generators permute label positions, so the image of a
			// valid node label is always a valid node label; an error here
			// means the codec invariant is broken, not bad input.
			panic(fmt.Sprintf("superipg: %s: generator image unrankable: %v", c.w.Name(), err))
		}
		//lint:ignore indextrunc u < N() <= topo.MaxVertices (math.MaxInt32), checked in Implicit
		buf = append(buf, int32(u))
	}
	c.pool.Put(s)
	return buf
}

// labelInto is LabelOf into reused scratch: the label of address addr
// appended to dst[:0], without allocating once dst has grown to the
// label length.
func (c *superCodec) labelInto(addr int, dst perm.Label) perm.Label {
	dst = dst[:0]
	for i := 0; i < c.w.L; i++ {
		var err error
		dst, err = c.w.Nuc.AppendLabel(dst, addr%c.w.Nuc.M)
		if err != nil {
			panic(fmt.Sprintf("superipg: %s: address %d unrankable: %v", c.w.Name(), addr, err))
		}
		addr /= c.w.Nuc.M
	}
	return dst
}
