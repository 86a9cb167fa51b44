// Package topo is the single adjacency substrate of the repository: the
// Source contract every traversal reads rows through, its two
// implementations (a compressed-sparse-row (CSR) arena with one flat
// []int32 neighbor array, built by streaming count-then-fill builders, and
// codec-backed Implicit rows), the two traversal kernels (scalar BFS and
// 64-source MSBFS, both maskable for faults, in bfs.go), and the
// port-labelled view consumed by routers and schedules.
//
// Every layer — the graph metrics, the family builders in
// internal/topology and internal/superipg, the emulation engines, and the
// packet simulator — iterates this arena instead of re-materializing its
// own [][]int32 copy.  The per-vertex slice headers of the old
// representation cost 24 bytes each plus allocator slack; CSR costs 4
// bytes of offset per vertex plus 4 per arc, roughly halving steady-state
// memory for the materialized families and keeping neighbor scans on one
// contiguous cache-friendly array.
package topo

import (
	"fmt"
	"math"
	"sort"
)

// Symmetric is the optional vertex-transitivity capability: a topology
// (or graph facade) whose automorphism group acts transitively on
// vertices reports it here, and metric consumers may then collapse
// all-sources sweeps to a single source — every vertex has the same
// eccentricity and the same distance multiset, so one BFS yields the
// exact diameter and average distance.  The Cayley-graph families the
// paper builds on (hypercubes, tori, generalized hypercubes, CCC,
// wrapped butterflies) qualify; implementations must return false
// whenever transitivity is not a proven property of the construction.
type Symmetric interface {
	VertexTransitive() bool
}

// Ported is the port-labelled view consumed by routers, schedules, and the
// emulation engines: every vertex exposes Arity(v) ports, and Port(v, p)
// is the neighbor behind port p.  Implementations may mark a dead port
// with the vertex's own id (an IPG generator that fixes the label) or
// with -1 (an absent simulator port); consumers must treat both as
// "no transmission".
type Ported interface {
	N() int
	Arity(v int) int
	Port(v, p int) int32
}

// MaxVertices is the largest vertex count the int32 arena can address.
const MaxVertices = math.MaxInt32

// maxArcs bounds the arena length so uint32 row offsets cannot wrap.
const maxArcs = math.MaxUint32

// CheckVertexCount reports whether n vertices fit the int32 arena
// representation, as an error suitable for propagation.
func CheckVertexCount(n int) error {
	if n < 0 || n > MaxVertices {
		return fmt.Errorf("topo: vertex count %d outside [0, %d]", n, MaxVertices)
	}
	return nil
}

// CSR is the compressed-sparse-row adjacency: the neighbors of vertex v
// are arena[off[v]:off[v+1]], sorted ascending with duplicates collapsed.
// A CSR is immutable after construction and safe for concurrent readers.
type CSR struct {
	off   []uint32
	arena []int32
	// maxDeg is the maximum row length, recorded at construction so the
	// CSR can report a Source degree bound without rescanning offsets.
	maxDeg int
}

// N returns the vertex count.
func (c *CSR) N() int { return len(c.off) - 1 }

// Arcs returns the arena length: directed arc count (twice the edge count
// for a symmetric CSR).
func (c *CSR) Arcs() int { return len(c.arena) }

// Degree returns the number of neighbors of v.
func (c *CSR) Degree(v int) int { return int(c.off[v+1] - c.off[v]) }

// Row returns v's sorted neighbor slice as a zero-copy view into the
// arena.  The returned slice is owned by the CSR and must not be modified.
func (c *CSR) Row(v int) []int32 { return c.arena[c.off[v]:c.off[v+1]] }

// HasArc reports whether the arc u->v is present, by binary search on u's
// sorted row.
func (c *CSR) HasArc(u, v int) bool {
	if v < 0 || v > MaxVertices {
		return false
	}
	//lint:ignore indextrunc v is bounded to MaxVertices (math.MaxInt32) above
	target := int32(v)
	row := c.Row(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= target })
	return i < len(row) && row[i] == target
}

// ArcIndex returns the arena index of the arc u->v, or -1 if absent.  The
// fault layer uses arena indices as stable arc identifiers for its link
// masks.
func (c *CSR) ArcIndex(u, v int) int {
	if v < 0 || v > MaxVertices {
		return -1
	}
	//lint:ignore indextrunc v is bounded to MaxVertices (math.MaxInt32) above
	target := int32(v)
	row := c.Row(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= target })
	if i < len(row) && row[i] == target {
		return int(c.off[u]) + i
	}
	return -1
}

// ArcSource returns the source vertex of arena index i, by binary search
// over the row offsets.
func (c *CSR) ArcSource(i int) int {
	// Find the first vertex whose row ends past i.
	//lint:ignore indextrunc i < len(arena) <= maxArcs (math.MaxUint32)
	target := uint32(i)
	return sort.Search(c.N(), func(v int) bool { return c.off[v+1] > target })
}

// ArcTarget returns the target vertex of arena index i.
func (c *CSR) ArcTarget(i int) int32 { return c.arena[i] }

// RowStart returns the arena index of v's first arc, so callers pairing
// Row(v) with per-arc masks can address arcs as RowStart(v)+j.
func (c *CSR) RowStart(v int) int { return int(c.off[v]) }

// ByteSize returns the adjacency storage footprint in bytes: the offset
// array plus the arena.  Struct headers are excluded (constant overhead).
func (c *CSR) ByteSize() int64 {
	return int64(cap(c.off))*4 + int64(cap(c.arena))*4
}

// Equal reports whether two CSRs have identical vertex and arc sets
// (labels matter; this is not isomorphism).
func Equal(a, b *CSR) bool {
	if a.N() != b.N() || len(a.arena) != len(b.arena) {
		return false
	}
	for i, o := range a.off {
		if b.off[i] != o {
			return false
		}
	}
	for i, v := range a.arena {
		if b.arena[i] != v {
			return false
		}
	}
	return true
}
