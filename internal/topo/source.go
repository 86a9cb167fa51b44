package topo

// Source is the neighbor-generation abstraction the traversal kernels and
// metric drivers consume: anything that can enumerate a vertex's sorted
// neighbor set into a caller-owned buffer.  CSR is one implementation (the
// materialized arena); Implicit is another (neighbors computed on the fly
// from a rank/unrank codec).  The contract mirrors the CSR row invariants
// exactly — ascending order, no duplicates, no self-loops — so a kernel
// running over a Source produces bit-identical traversals on either
// implementation.
//
// NeighborsInto must be safe for concurrent callers (each with its own
// buffer): the parallel metric drivers fan one Source out over a worker
// pool.
type Source interface {
	// N returns the vertex count.
	N() int
	// DegreeBound returns an upper bound on Degree(v) over all vertices,
	// so callers can pre-size neighbor buffers once instead of growing
	// them mid-traversal.
	DegreeBound() int
	// NeighborsInto appends v's neighbors — ascending, deduplicated,
	// self excluded — to buf[:0] and returns it.  Passing a buffer with
	// cap >= DegreeBound() makes the call allocation-free.
	NeighborsInto(v int, buf []int32) []int32
}

// DegreeBound implements Source: the maximum row length, computed once at
// construction.
func (c *CSR) DegreeBound() int { return c.maxDeg }

// NeighborsInto implements Source by copying Row(v) (the arena rows
// already satisfy the Source ordering contract).  The traversal kernels
// read arena rows in place instead.
func (c *CSR) NeighborsInto(v int, buf []int32) []int32 {
	return append(buf[:0], c.Row(v)...)
}

// SourceTransitive reports whether s is marked vertex-transitive through
// the optional Symmetric capability.  Metric drivers use it to collapse
// all-sources sweeps to a single source; a Source without the capability
// is conservatively non-transitive.
func SourceTransitive(s Source) bool {
	if sym, ok := s.(Symmetric); ok {
		return sym.VertexTransitive()
	}
	return false
}
