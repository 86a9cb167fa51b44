// Package ipg implements the index-permutation graph (IPG) model of Yeh &
// Parhami: a graph defined by a seed label (a symbol string, possibly with
// repeated symbols) and a set of permutation generators.  The vertices are
// all labels reachable from the seed by generator applications; the edges
// are the generator actions.
//
// Cayley graphs are the special case where the seed has all-distinct
// symbols; allowing repeats is exactly the extension that yields
// super-IPGs, hierarchical swap networks, cyclic networks, and the other
// families studied in the paper.
//
// Build materializes an IPG by breadth-first closure, numbering nodes in
// BFS order and keeping one byte per label symbol.  It builds nuclei and
// generic IPGs, and it is the reference that internal/superipg's digit
// rule is tested against: super-IPGs number their nodes by address and
// get their adjacency from that rule, held in the same Adjacency.
package ipg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"ipg/internal/graph"
	"ipg/internal/perm"
)

// Spec defines an IPG before materialization.
type Spec struct {
	Name string
	Seed perm.Label
	Gens perm.GenSet
}

// Validate checks that the generators are valid permutations acting on
// labels of the seed's length.
func (s Spec) Validate() error {
	if err := s.Gens.Validate(); err != nil {
		return err
	}
	if s.Gens[0].P.Size() != len(s.Seed) {
		return fmt.Errorf("ipg: generators act on %d positions but seed has %d symbols",
			s.Gens[0].P.Size(), len(s.Seed))
	}
	return nil
}

// Adjacency is a per-generator adjacency held in one flat array: the
// node reached from v by generator gi is adj[v*gens+gi].  It satisfies
// topo.Ported — port gi of node v is the node reached by generator gi
// (possibly v itself: a self-loop, which is not a link in the physical
// network).  Graph embeds it, and so does superipg.Graph, whose
// adjacency is formed by digit arithmetic instead of a closure.
type Adjacency struct {
	n, gens int
	adj     []int32
}

// NewAdjacency returns the adjacency of n nodes under gens generators
// held in adj, which must have n*gens entries.
func NewAdjacency(n, gens int, adj []int32) Adjacency {
	return Adjacency{n: n, gens: gens, adj: adj}
}

// N returns the number of nodes.
func (a *Adjacency) N() int { return a.n }

// NumGens returns the number of generators (the directed out-degree
// including self-loops).
func (a *Adjacency) NumGens() int { return a.gens }

// Arity returns the number of ports at every node: one per generator.  It
// is part of the topo.Ported contract.
func (a *Adjacency) Arity(v int) int { return a.gens }

// Port returns the node behind port p of v: the node reached by generator
// p.  A self-loop returns v itself — Ported consumers treat a port whose
// target equals the node (or is negative) as carrying no traffic.
func (a *Adjacency) Port(v, p int) int32 { return a.adj[v*a.gens+p] }

// Neighbor returns the node reached from v by generator gi.  The result
// equals v when the generator fixes v's label (self-loop).
func (a *Adjacency) Neighbor(v, gi int) int { return int(a.adj[v*a.gens+gi]) }

// IsLoop reports whether generator gi is a self-loop at v.
func (a *Adjacency) IsLoop(v, gi int) bool { return int(a.adj[v*a.gens+gi]) == v }

// MemoryFootprint returns the adjacency's resident bytes, at its
// capacity.
func (a *Adjacency) MemoryFootprint() int64 { return int64(cap(a.adj)) * 4 }

// Undirected collapses the adjacency into a simple undirected graph
// (self-loops dropped, parallel edges merged), streaming the generator
// arcs straight into the CSR arena.  For inverse-closed generator sets
// this loses no connectivity information.
func (a *Adjacency) Undirected() *graph.Graph {
	return graph.FromStream(a.n, func(edge func(u, v int)) {
		//lint:ignore ctxflow the arc stream is bounded by MaxNodes (1<<22) times the generator count and runs once per artifact under serve's build timeout
		for v := 0; v < a.N(); v++ {
			for _, w := range a.adj[v*a.gens : (v+1)*a.gens] {
				if int(w) != v {
					edge(v, int(w))
				}
			}
		}
	})
}

// Graph is a materialized IPG: the closure of the seed under the
// generators, with its labels and per-generator adjacency.
type Graph struct {
	Spec
	Adjacency
	// labels holds every label back to back, one fixed-width record per
	// node: node v's label is labels[v*width : (v+1)*width].
	labels []byte
	width  int
	// table indexes the labels by content: an open-addressing table with
	// linear probing over a power-of-two number of slots, each holding
	// a node id plus one (0 marks an empty slot).  It is kept at most
	// half full.
	table []int32
}

// MaxNodes caps IPG materialization as a guard against runaway closures
// (e.g. a mistaken generator set generating a huge permutation group).
const MaxNodes = 1 << 22

// minTable is the label table's initial slot count.
const minTable = 64

// Build materializes the IPG defined by spec via breadth-first closure:
// node ids are assigned in BFS order from the seed (node 0), generators
// in order.
func Build(spec Spec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Spec: spec, Adjacency: Adjacency{gens: len(spec.Gens)}, width: len(spec.Seed)}
	g.resize(minTable)
	g.insert(spec.Seed, g.slot(spec.Seed))
	scratch := make(perm.Label, g.width)
	for head := 0; head < g.N(); head++ {
		// A view, not a copy: appends below may move the arena, but the
		// old backing array keeps this label intact.
		cur := g.record(head)
		for _, gen := range spec.Gens {
			gen.P.ApplyInto(scratch, cur)
			s := g.slot(scratch)
			id := g.table[s] - 1
			if id < 0 {
				if g.N() >= MaxNodes {
					return nil, fmt.Errorf("ipg: %s exceeds MaxNodes=%d", spec.Name, MaxNodes)
				}
				id = g.insert(scratch, s)
			}
			g.adj = append(g.adj, id)
		}
	}
	// One trim: the arena and the adjacency drop their growth slack.
	g.labels = slices.Clone(g.labels)
	g.adj = slices.Clone(g.adj)
	return g, nil
}

// MustBuild is Build that panics on error.
func MustBuild(spec Spec) *Graph {
	g, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return g
}

// hashLabel hashes a label eight symbols at a time, multiplying each
// mixed word by an odd constant so that every input bit reaches the high
// bits, which pick the slot.
func hashLabel(l []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(l))
	for ; len(l) >= 8; l = l[8:] {
		h = (h ^ binary.LittleEndian.Uint64(l)) * m
		h ^= h >> 32
	}
	for _, b := range l {
		h = (h ^ uint64(b)) * m
	}
	return (h ^ h>>29) * m
}

// record returns node v's label, a view into the arena.
func (g *Graph) record(v int) []byte { return g.labels[v*g.width : (v+1)*g.width] }

// slot returns the table slot holding l's node, or the empty slot where
// l would go.  l must have the graph's width.
func (g *Graph) slot(l []byte) int {
	mask := len(g.table) - 1
	shift := 64 - bits.Len(uint(mask))
	s := int(hashLabel(l) >> shift)
	for {
		id := int(g.table[s]) - 1
		if id < 0 || string(g.record(id)) == string(l) {
			return s
		}
		s = (s + 1) & mask
	}
}

// insert appends l as a new node in the empty slot s (from slot), growing
// the table when it would pass half full.
func (g *Graph) insert(l []byte, s int) int32 {
	//lint:ignore indextrunc Build caps the node count at MaxNodes (1<<22) before inserting
	id := int32(g.n)
	g.labels = append(g.labels, l...)
	g.n++
	if 2*g.n > len(g.table) {
		g.resize(2 * len(g.table))
	} else {
		g.table[s] = id + 1
	}
	return id
}

// resize gives the table slots slots (a power of two), rehashes every
// node into it, and reserves arena and adjacency room for the slots/2
// nodes it can hold, so all three grow in the same doubling steps.
func (g *Graph) resize(slots int) {
	g.table = make([]int32, slots)
	for v := range g.n {
		g.table[g.slot(g.record(v))] = int32(v) + 1 //lint:ignore indextrunc v < g.n <= MaxNodes (1<<22)
	}
	g.labels = slices.Grow(g.labels, slots/2*g.width-len(g.labels))
	g.adj = slices.Grow(g.adj, slots/2*g.gens-len(g.adj))
}

// Label returns a copy of node v's label.  Loops over many nodes should
// reuse a buffer with LabelInto instead.
func (g *Graph) Label(v int) perm.Label { return g.LabelInto(v, nil) }

// LabelInto copies node v's label into dst, reallocating it only when
// its capacity is below the label length, and returns it.
func (g *Graph) LabelInto(v int, dst perm.Label) perm.Label {
	return append(dst[:0], g.record(v)...)
}

// NodeID returns the node with the given label, or -1 when no node has it
// (including labels of the wrong length).
func (g *Graph) NodeID(l perm.Label) int {
	if len(l) != g.width {
		return -1
	}
	return int(g.table[g.slot(l)]) - 1
}
