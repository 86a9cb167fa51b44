package superipg

//lint:file-ignore ctxflow the rule's loops cover the nucleus table (M x nucleus generators), an address's L <= 30 digits and one row's generators; Build's walk is capped at ipg.MaxNodes and runs once per artifact under serve's build timeout
//lint:file-ignore indextrunc addresses and digits are below N <= topo.MaxVertices (math.MaxInt32), checked in newDigitRule

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/perm"
	"ipg/internal/topo"
)

// This file is the digit rule: the adjacency of a super-IPG in address
// order, the one node numbering that every representation shares.  Node
// v is the mixed-radix address of its label (AddressOf): digit i, the
// nucleus address of group i+1, weighs M^i.  A lifted nucleus generator
// acts on the first group alone, so it rewrites digit 0 through a table
// of the nucleus's generators in address order.  A super-generator moves
// whole groups rigidly (perm.GroupAction), so super-generator k puts old
// digit superActs[k][i] at position i.  Every nucleus numbers its seed 0,
// so node 0 is the seed, and the nodes whose first group is the nucleus
// seed are the multiples of M.

// maxGroups bounds the digits of an address: N fits an int32 and M >= 2,
// so L <= 30.
const maxGroups = 31

// digitRule forms generator rows of one network from node digits.
type digitRule struct {
	m    int         // nucleus size M
	gens int         // nucleus generators
	n    int         // node count M^L
	nuc  []int32     // nuc[a*gens+j]: nucleus generator j applied to nucleus address a
	pow  []int       // pow[i] = M^i
	acts []perm.Perm // the super-generators' group actions
}

// digitRule returns w's rule, built on first use.  It errors when the
// nucleus is not addressable, does not number its seed 0 or takes an
// address off its numbering, or when the addresses overflow int32.
func (w *Network) digitRule() (*digitRule, error) {
	w.ruleOnce.Do(func() { w.rule, w.ruleErr = newDigitRule(w) })
	return w.rule, w.ruleErr
}

func newDigitRule(w *Network) (*digitRule, error) {
	nu := w.Nuc
	if !nu.Addressable() {
		return nil, fmt.Errorf("superipg: nucleus %s is not addressable; no address numbering", nu.Name)
	}
	if nu.M < 2 {
		return nil, fmt.Errorf("superipg: nucleus %s has %d nodes, want at least 2", nu.Name, nu.M)
	}
	if a, err := nu.AddressOf(nu.Seed); err != nil || a != 0 {
		return nil, fmt.Errorf("superipg: nucleus %s does not number its seed 0", nu.Name)
	}
	r := &digitRule{m: nu.M, gens: len(nu.Gens), n: 1, pow: make([]int, w.L), acts: w.superActs}
	for i := range r.pow {
		if r.n > topo.MaxVertices/nu.M {
			return nil, fmt.Errorf("superipg: %s has more than %d nodes; addresses overflow int32", w.Name(), topo.MaxVertices)
		}
		r.pow[i] = r.n
		r.n *= nu.M
	}
	m := nu.SymbolLen()
	r.nuc = make([]int32, nu.M*r.gens)
	lbl, img, back := make(perm.Label, 0, m), make(perm.Label, m), make(perm.Label, 0, m)
	for a := 0; a < nu.M; a++ {
		var err error
		if lbl, err = nu.AppendLabel(lbl[:0], a); err != nil {
			return nil, err
		}
		for j, g := range nu.Gens {
			g.P.ApplyInto(img, lbl)
			b, err := nu.AddressOf(img)
			if err == nil {
				back, err = nu.AppendLabel(back[:0], b)
			}
			if err != nil || !back.Equal(img) {
				return nil, fmt.Errorf("superipg: nucleus %s: generator %s takes address %d off the numbering", nu.Name, g.Name, a)
			}
			r.nuc[a*r.gens+j] = int32(b)
		}
	}
	return r, nil
}

// digits writes the L digits of address v into d.
func (r *digitRule) digits(v int, d []int32) {
	for i := range d {
		d[i] = int32(v % r.m)
		v /= r.m
	}
}

// appendRow appends node v's generator row to buf, nucleus generators
// first, given v's digits d.
func (r *digitRule) appendRow(buf []int32, v int, d []int32) []int32 {
	d0 := int(d[0])
	base := int32(v - d0)
	for _, a := range r.nuc[d0*r.gens : (d0+1)*r.gens] {
		buf = append(buf, base+a)
	}
	for _, act := range r.acts {
		u := 0
		for i, src := range act {
			u += int(d[src]) * r.pow[i]
		}
		buf = append(buf, int32(u))
	}
	return buf
}

// Graph is a materialized super-IPG: its per-generator adjacency over the
// address numbering, formed by the digit rule.  Node v is address v, so
// node 0 is the seed.  No label is stored: Label and NodeID decode and
// encode addresses.
type Graph struct {
	ipg.Adjacency
	w *Network
}

// Build materializes the super-IPG's adjacency by the digit rule, walking
// the addresses in order with their digits kept as an odometer.  It
// errors when the nucleus is not addressable and when the network has
// more than ipg.MaxNodes nodes.
func (w *Network) Build() (*Graph, error) {
	r, err := w.digitRule()
	if err != nil {
		return nil, err
	}
	if r.n > ipg.MaxNodes {
		return nil, fmt.Errorf("superipg: %s has %d nodes, above MaxNodes=%d", w.Name(), r.n, ipg.MaxNodes)
	}
	adj := make([]int32, 0, r.n*len(w.gens))
	d := make([]int32, w.L)
	for v := 0; v < r.n; v++ {
		adj = r.appendRow(adj, v, d)
		for i := range d {
			if d[i]++; int(d[i]) < r.m {
				break
			}
			d[i] = 0
		}
	}
	return &Graph{Adjacency: ipg.NewAdjacency(r.n, len(w.gens), adj), w: w}, nil
}

// MustBuild is Build that panics on error.
func (w *Network) MustBuild() *Graph {
	g, err := w.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Label returns node v's label in a fresh slice.
func (g *Graph) Label(v int) perm.Label { return g.LabelInto(v, nil) }

// LabelInto writes node v's label into dst's storage, as
// Network.LabelInto does, and returns it.  It panics when v is not a
// node.
func (g *Graph) LabelInto(v int, dst perm.Label) perm.Label {
	l, err := g.w.LabelInto(v, dst)
	if err != nil {
		panic(err)
	}
	return l
}

// NodeID returns the node with the given label, which is its address, or
// -1 when no node has it.
func (g *Graph) NodeID(l perm.Label) int {
	a, err := g.w.AddressOf(l)
	if err != nil {
		return -1
	}
	var buf [64]byte
	if back, err := g.w.LabelInto(a, buf[:0]); err != nil || !back.Equal(l) {
		return -1
	}
	return a
}

// NucleusAdjacency returns the nucleus's generator adjacency over its
// addresses, the digit rule's table: nucleus generator j takes nucleus
// address a to Neighbor(a, j).  It errors as Build does.
func (w *Network) NucleusAdjacency() (*ipg.Adjacency, error) {
	r, err := w.digitRule()
	if err != nil {
		return nil, err
	}
	a := ipg.NewAdjacency(r.m, r.gens, r.nuc)
	return &a, nil
}
