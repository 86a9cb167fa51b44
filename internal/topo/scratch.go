package topo

import "sync"

// Scratch bundles the per-worker traversal buffers every BFS consumer
// needs — a distance vector, a queue, and (lazily) an MSBFS word-per-
// vertex scratch — behind one sync.Pool, so serving-layer request paths
// (/v1/route searches, /v1/metrics builds) and the parallel metric
// workers allocate O(1) at steady state instead of O(N) per request.
//
// A Scratch is checked out with GetScratch(n) and must be returned with
// PutScratch when the caller is done; the buffers grow monotonically and
// are reused verbatim for any topology at most as large.
type Scratch struct {
	// Dist is a length-n distance vector (contents are garbage until a
	// BFS overwrites them); ShortestPath keeps its signed labels here.
	Dist []int32
	// Queue is an empty queue with capacity >= n, making BFSSourceInto
	// allocation-free.  ShortestPath uses all n entries, one ball from
	// each end.
	Queue []int32

	// Nbuf is a reusable neighbor-row buffer (see NeighborBuf).  Callers
	// that grow it must store the grown slice back before PutScratch so
	// the capacity is retained across checkouts.
	Nbuf []int32

	ms *MSBFSScratch
}

var scratchPool sync.Pool

// GetScratch checks a scratch out of the pool, sized for n vertices.
func GetScratch(n int) *Scratch {
	s, _ := scratchPool.Get().(*Scratch)
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.Dist) < n {
		s.Dist = make([]int32, n)
	}
	s.Dist = s.Dist[:n]
	if cap(s.Queue) < n {
		s.Queue = make([]int32, 0, n)
	}
	s.Queue = s.Queue[:0]
	return s
}

// PutScratch returns a scratch to the pool.  The caller must not retain
// any view into its buffers.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// NeighborBuf returns an empty neighbor-row buffer with capacity >=
// degreeBound, reusing the pooled slice when it is already big enough —
// the per-request NeighborsInto buffer on serving paths without
// allocating per request.
func (s *Scratch) NeighborBuf(degreeBound int) []int32 {
	if cap(s.Nbuf) < degreeBound {
		s.Nbuf = make([]int32, 0, degreeBound)
	}
	return s.Nbuf[:0]
}

// MS returns the scratch's MSBFS state sized for n vertices, allocating
// it on first use so scalar-only callers never pay the 24 bytes/vertex.
func (s *Scratch) MS(n int) *MSBFSScratch {
	if s.ms == nil {
		s.ms = NewMSBFSScratch(n)
	} else {
		s.ms.ensure(n)
	}
	return s.ms
}
