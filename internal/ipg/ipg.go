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

// Graph is a materialized IPG: the closure of the seed under the
// generators, with per-generator adjacency.  It satisfies topo.Ported —
// port gi of node v is the node reached by generator gi (possibly v
// itself: a self-loop, which is not a link in the physical network).
type Graph struct {
	Spec
	// labels holds every label back to back, bit-packed, one fixed-width
	// record of rec bytes per node: node v's record is
	// labels[v*rec : (v+1)*rec].  Generators only permute positions, so
	// every label is over the seed's alphabet, and each symbol takes
	// pk.bits bits (enough for the seed's largest symbol; see packer).
	labels []byte
	width  int // symbols per label
	rec    int // bytes per record: pk.size(width)
	pk     packer
	n      int
	// table indexes the records by content: an open-addressing table
	// with linear probing over a power-of-two number of slots, each
	// holding a node id plus one (0 marks an empty slot).  It is kept at
	// most half full.
	table []int32
	// adj holds the per-generator adjacency in one flat array: the node
	// reached from v by generator gi is adj[v*len(Gens)+gi].
	adj []int32
}

// MaxNodes caps IPG materialization as a guard against runaway closures
// (e.g. a mistaken generator set generating a huge permutation group).
const MaxNodes = 1 << 22

// minTable is the label table's initial slot count.
const minTable = 64

// Build materializes the IPG defined by spec via breadth-first closure:
// node ids are assigned in BFS order from the seed (node 0), generators
// in order.  Each BFS head's label is unpacked once, and each generator
// image is formed as a label and packed.
func Build(spec Spec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Spec: spec, width: len(spec.Seed), pk: newPacker(spec.Seed)}
	g.rec = g.pk.size(g.width)
	rec := make([]byte, g.rec)
	g.pk.pack(rec, spec.Seed)
	g.resize(minTable)
	g.insert(rec, g.slot(rec))
	cur := make(perm.Label, g.width)
	scratch := make(perm.Label, g.width)
	//lint:ignore ctxflow the closure is capped at MaxNodes (1<<22) nodes and runs once per artifact under serve's build timeout
	for head := 0; head < g.N(); head++ {
		g.pk.unpack(cur, g.record(head))
		for _, gen := range spec.Gens {
			gen.P.ApplyInto(scratch, cur)
			g.pk.pack(rec, scratch)
			s := g.slot(rec)
			id := g.table[s] - 1
			if id < 0 {
				if g.N() >= MaxNodes {
					return nil, fmt.Errorf("ipg: %s exceeds MaxNodes=%d", spec.Name, MaxNodes)
				}
				id = g.insert(rec, s)
			}
			g.adj = append(g.adj, id)
		}
	}
	// One trim: the arena and the adjacency drop their growth slack, so
	// what stays resident is what MemoryFootprint charges.
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

// hashRecord hashes a packed record eight bytes at a time, multiplying
// each mixed word by an odd constant so that every input bit reaches the
// high bits, which pick the slot.
func hashRecord(r []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(r))
	for ; len(r) >= 8; r = r[8:] {
		h = (h ^ binary.LittleEndian.Uint64(r)) * m
		h ^= h >> 32
	}
	if len(r) > 0 {
		h = (h ^ load(r)) * m
	}
	return (h ^ h>>29) * m
}

// record returns node v's packed record, a view into the arena.
func (g *Graph) record(v int) []byte { return g.labels[v*g.rec : (v+1)*g.rec] }

// slot returns the table slot holding r's node, or the empty slot where
// r would go.  r must be a record of the graph's width.
func (g *Graph) slot(r []byte) int {
	mask := len(g.table) - 1
	shift := 64 - bits.Len(uint(mask))
	s := int(hashRecord(r) >> shift)
	for {
		id := int(g.table[s]) - 1
		if id < 0 || string(g.record(id)) == string(r) {
			return s
		}
		s = (s + 1) & mask
	}
}

// insert appends r as a new node in the empty slot s (from slot), growing
// the table when it would pass half full.
func (g *Graph) insert(r []byte, s int) int32 {
	//lint:ignore indextrunc Build caps the node count at MaxNodes (1<<22) before inserting
	id := int32(g.n)
	g.labels = append(g.labels, r...)
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
	mask := slots - 1
	shift := 64 - bits.Len(uint(mask))
	for v := range g.n {
		// The records are distinct: take the first empty slot.
		s := int(hashRecord(g.record(v)) >> shift)
		//lint:ignore ctxflow a linear probe of a table kept at most half full, in a closure capped at MaxNodes (1<<22) nodes
		for g.table[s] != 0 {
			s = (s + 1) & mask
		}
		g.table[s] = int32(v) + 1 //lint:ignore indextrunc v < g.n <= MaxNodes (1<<22)
	}
	g.labels = slices.Grow(g.labels, slots/2*g.rec-len(g.labels))
	g.adj = slices.Grow(g.adj, slots/2*len(g.Gens)-len(g.adj))
}

// MemoryFootprint returns the materialized IPG's resident bytes: the flat
// per-generator adjacency, the label arena and the label table, each at
// its capacity.  The serving cache (internal/serve) charges artifacts
// against its byte budget with this accounting, alongside
// graph.Graph.MemoryFootprint for the CSR side.
func (g *Graph) MemoryFootprint() int64 {
	return int64(cap(g.adj))*4 + int64(cap(g.labels)) + int64(cap(g.table))*4
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumGens returns the number of generators (the directed out-degree
// including self-loops).
func (g *Graph) NumGens() int { return len(g.Gens) }

// Arity returns the number of ports at every node: one per generator.  It
// is part of the topo.Ported contract.
func (g *Graph) Arity(v int) int { return len(g.Gens) }

// Port returns the node behind port p of v: the node reached by generator
// p.  A self-loop returns v itself — Ported consumers treat a port whose
// target equals the node (or is negative) as carrying no traffic.
func (g *Graph) Port(v, p int) int32 { return g.adj[v*len(g.Gens)+p] }

// Label returns a copy of node v's label, unpacked from the arena.
// Loops over many nodes should reuse a buffer with LabelInto instead.
func (g *Graph) Label(v int) perm.Label { return g.LabelInto(v, nil) }

// LabelInto unpacks node v's label into dst, reallocating it only when
// its capacity is below the label length, and returns it.
func (g *Graph) LabelInto(v int, dst perm.Label) perm.Label {
	if cap(dst) < g.width {
		dst = make(perm.Label, g.width)
	}
	dst = dst[:g.width]
	g.pk.unpack(dst, g.record(v))
	return dst
}

// nodeIDStack is the largest record NodeID packs on its stack; a longer
// one (over 512 one-bit or 64 eight-bit symbols) costs an allocation.
const nodeIDStack = 64

// NodeID returns the node with the given label, or -1 when no node has it
// (including labels of the wrong length and labels holding a symbol too
// large for the seed's alphabet).  It packs l into a buffer of its own,
// so concurrent callers may share the graph.
func (g *Graph) NodeID(l perm.Label) int {
	if len(l) != g.width {
		return -1
	}
	var buf [nodeIDStack]byte
	r := buf[:min(g.rec, nodeIDStack)]
	if g.rec > nodeIDStack {
		r = make([]byte, g.rec)
	}
	if !g.pk.pack(r, l) {
		return -1
	}
	return int(g.table[g.slot(r)]) - 1
}

// Neighbor returns the node reached from v by generator gi.  The result
// equals v when the generator fixes v's label (self-loop).
func (g *Graph) Neighbor(v, gi int) int { return int(g.adj[v*len(g.Gens)+gi]) }

// IsLoop reports whether generator gi is a self-loop at v.
func (g *Graph) IsLoop(v, gi int) bool { return int(g.adj[v*len(g.Gens)+gi]) == v }

// Undirected collapses the IPG into a simple undirected graph (self-loops
// dropped, parallel edges merged), streaming the generator arcs straight
// into the CSR arena.  For inverse-closed generator sets this loses no
// connectivity information.
func (g *Graph) Undirected() *graph.Graph {
	return graph.FromStream(g.N(), func(edge func(u, v int)) {
		ng := len(g.Gens)
		//lint:ignore ctxflow the arc stream is bounded by MaxNodes (1<<22, enforced in New) times the generator count and runs once per artifact under serve's build timeout
		for v := 0; v < g.N(); v++ {
			for _, w := range g.adj[v*ng : (v+1)*ng] {
				if int(w) != v {
					edge(v, int(w))
				}
			}
		}
	})
}

// ClustersBy partitions nodes by the suffix of their label that starts at
// offset and returns (clusterOf, clusterCount), numbering clusters in
// order of first appearance.  Super-IPG packages pass the first group's
// length, making each cluster one nucleus copy.
func (g *Graph) ClustersBy(offset int) ([]int32, int) {
	clusterOf := make([]int32, g.N())
	idx := make(map[string]int32)
	var lbl perm.Label
	//lint:ignore ctxflow one map lookup per node, at most MaxNodes (1<<22), once per artifact's partition
	for v := range clusterOf {
		lbl = g.LabelInto(v, lbl)
		suffix := lbl[offset:]
		id, ok := idx[string(suffix)]
		if !ok {
			//lint:ignore indextrunc len(idx) <= g.N() <= MaxNodes (1<<22)
			id = int32(len(idx))
			idx[string(suffix)] = id
		}
		clusterOf[v] = id
	}
	return clusterOf, len(idx)
}
