package topo

//lint:file-ignore ctxflow Build is a one-shot two-pass fill bounded by CheckVertexCount and maxArcs, run once per artifact under serve's build timeout

import (
	"fmt"
	"slices"
)

// This file implements the streaming count-then-fill builders.  A caller
// describes its edge set as a function that replays the edges on demand;
// the builder invokes it twice — once to size each row, once to fill the
// arena — so no intermediate [][]int32 is ever allocated.  Rows are then
// sorted and deduplicated in place, and self-loops are dropped, matching
// the semantics of the old per-vertex sorted adjacency lists bit for bit.

// Build constructs a symmetric (undirected) CSR on n vertices.  stream
// must invoke edge(u, v) for the same edge multiset on every call; each
// call contributes v to u's row and u to v's row.  Self-loops are
// skipped and parallel edges collapse, so emitting an edge from both
// endpoints (the natural form for the family builders) is harmless.
// Build panics if an endpoint is outside [0, n).
func Build(n int, stream func(edge func(u, v int))) (*CSR, error) {
	return build(n, stream, true)
}

// BuildArcs constructs a directed CSR on n vertices: arc(u, v) contributes
// v to u's row only.  Self-arcs are skipped and duplicates collapse.
func BuildArcs(n int, stream func(arc func(u, v int))) (*CSR, error) {
	return build(n, stream, false)
}

func build(n int, stream func(edge func(u, v int)), symmetric bool) (*CSR, error) {
	if err := CheckVertexCount(n); err != nil {
		return nil, err
	}
	check := func(u, v int) bool {
		if u < 0 || v < 0 || u >= n || v >= n {
			panic(fmt.Sprintf("topo.Build: vertex out of range: %d,%d (n=%d)", u, v, n))
		}
		return u != v
	}
	// Pass 1: count row sizes.
	counts := make([]uint32, n)
	var total uint64
	stream(func(u, v int) {
		if !check(u, v) {
			return
		}
		counts[u]++
		total++
		if symmetric {
			counts[v]++
			total++
		}
	})
	if total > maxArcs {
		return nil, fmt.Errorf("topo: %d arcs overflow the uint32 offset representation", total)
	}
	off := make([]uint32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + counts[v]
	}
	// Pass 2: fill, reusing counts as per-row cursors.
	arena := make([]int32, total)
	cursor := counts
	copy(cursor, off[:n])
	put := func(u int, v int32) {
		i := cursor[u]
		if i == off[u+1] {
			panic("topo.Build: stream emitted different edges between passes")
		}
		arena[i] = v
		cursor[u] = i + 1
	}
	stream(func(u, v int) {
		if !check(u, v) {
			return
		}
		put(u, int32(v))
		if symmetric {
			put(v, int32(u))
		}
	})
	for v := 0; v < n; v++ {
		if cursor[v] != off[v+1] {
			return nil, fmt.Errorf("topo: stream emitted fewer edges on the fill pass (row %d)", v)
		}
	}
	// Sort each row and compact duplicates in place (the read index never
	// falls behind the write index, so one arena suffices).
	var w uint32
	for v := 0; v < n; v++ {
		row := arena[off[v]:off[v+1]]
		slices.Sort(row)
		start := w
		for i, x := range row {
			if i > 0 && x == row[i-1] {
				continue
			}
			arena[w] = x
			w++
		}
		off[v] = start
	}
	off[n] = w
	if int(w) != len(arena) {
		// Clone to the exact size so collapsed duplicates do not linger as
		// dead capacity in the steady-state footprint.
		arena = append(make([]int32, 0, w), arena[:w]...)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := int(off[v+1] - off[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return &CSR{off: off, arena: arena, maxDeg: maxDeg}, nil
}
