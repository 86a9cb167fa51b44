package graph

//lint:file-ignore ctxflow worker closures process one 64-source MSBFS batch per iteration and the enclosing loops poll ctx between batches, so cancellation latency is bounded by a single batch

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ipg/internal/topo"
)

// This file holds Distances, the one all-sources distance sweep: it
// returns the diameter and the average distance of any topo.Source from a
// single sweep.  Sources are processed 64 at a time by the bit-parallel
// multi-source BFS kernel (topo.MSBFSSourceInto), and the batches are
// distributed over a worker pool: compared with one scalar BFS per source
// this shares every row scan across the whole batch, which is where the
// per-family speedups reported in EXPERIMENTS.md come from.
//
// Sources whose construction proves an automorphism group sweep one
// representative per orbit (Graph.MarkOrbits): every vertex has the
// eccentricity and distance sum of its orbit's representative, and the
// orbits are equally large, so the diameter is the maximum over the
// representatives and the distance total is n/len(reps) times theirs.
// The one-orbit case is vertex transitivity (a Graph marked by its family
// builder, or an Implicit whose codec proves it), where one scalar BFS
// from the representative yields both metrics.  The serial Diameter and
// AverageDistance deliberately keep the full all-sources sweep, so the
// existing parallel-equals-serial tests double as a symmetry
// cross-check.
//
// The context enforces the serving layer's per-request deadlines: each
// worker re-checks it between batches, so cancellation latency is bounded
// by one 64-source batch rather than the whole all-pairs loop.

// batchSize is the MSBFS lane width: one bit per source in a uint64 word.
const batchSize = 64

// Distances computes the exact diameter and the mean distance over all
// ordered vertex pairs (including self pairs, the paper's convention) of
// any adjacency source, from one batched source-parallel sweep.  A Graph
// marked with orbit representatives sweeps only those; a source that
// proves vertex transitivity (topo.Symmetric) collapses to a single BFS.
// Both results are -1 for a disconnected source and 0 for an empty one;
// the error is ctx's, when it is cancelled between batches.
func Distances(ctx context.Context, src topo.Source) (diameter int, avg float64, err error) {
	var reps []int32
	if g, ok := src.(*Graph); ok {
		// Sweep the arena itself so the kernels read rows in place; the
		// orbit mark lives on the Graph, hence read first.
		reps = g.reps
		src = g.csr
	} else if topo.SourceTransitive(src) {
		reps = oneOrbit
	}
	n := src.N()
	if n == 0 {
		return 0, 0, nil
	}
	// weight is the orbit size: the distance total of the swept sources
	// times weight is the int64 the full sweep accumulates, so the
	// division below is bit-identical to it.
	weight := int64(1)
	if reps != nil {
		weight = int64(n / len(reps))
	}
	if len(reps) == 1 {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		s := topo.GetScratch(n)
		defer topo.PutScratch(s)
		var ecc int32
		var sum int64
		ecc, sum, s.Nbuf = topo.BFSSourceInto(src, int(reps[0]), s.Dist, s.Queue, s.NeighborBuf(src.DegreeBound()))
		if ecc < 0 {
			return -1, -1, nil
		}
		return int(ecc), float64(sum*weight) / float64(n) / float64(n), nil
	}
	var diam, total atomic.Int64
	var disconnected atomic.Bool
	err = sweep(ctx, src, reps, func(ecc []int32, sum []int64) {
		var batchMax, batchTotal int64
		for i, e := range ecc {
			if e < 0 {
				disconnected.Store(true)
				return
			}
			batchMax = max(batchMax, int64(e))
			batchTotal += sum[i]
		}
		topo.AtomicMaxInt64(&diam, batchMax)
		total.Add(batchTotal)
	})
	if err != nil {
		return 0, 0, err
	}
	if disconnected.Load() {
		return -1, -1, nil
	}
	return int(diam.Load()), float64(total.Load()*weight) / float64(n) / float64(n), nil
}

// sweep partitions the sources — srcs, or every vertex when srcs is nil
// — into 64-source batches, runs the multi-source BFS kernel on each over
// a GOMAXPROCS worker pool, and hands every batch's eccentricities and
// distance sums to merge (which must be safe for concurrent calls).
// Workers check ctx between batches and stop early when it is cancelled;
// batches already dispatched finish, and the function returns ctx's
// error.  Traversal scratch comes from the shared topo pool, so repeated
// metric builds allocate O(1) at steady state.
func sweep(ctx context.Context, src topo.Source, srcs []int32, merge func(ecc []int32, sum []int64)) error {
	n := src.N()
	count := n
	if srcs != nil {
		count = len(srcs)
	}
	batches := (count + batchSize - 1) / batchSize
	run := func(b int, buf []int32, s *topo.Scratch, ecc []int32, sum []int64, nbuf []int32) []int32 {
		lo := b * batchSize
		hi := min(lo+batchSize, count)
		batch := buf[:0]
		if srcs != nil {
			batch = srcs[lo:hi]
		} else {
			for v := lo; v < hi; v++ {
				//lint:ignore indextrunc v < n, which the source construction bounds to MaxVertices (math.MaxInt32)
				batch = append(batch, int32(v))
			}
		}
		nbuf = topo.MSBFSSourceInto(src, batch, s.MS(n), ecc[:len(batch)], sum[:len(batch)], nil, nbuf)
		merge(ecc[:len(batch)], sum[:len(batch)])
		return nbuf
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > batches {
		workers = batches
	}
	if workers <= 1 {
		s := topo.GetScratch(n)
		defer topo.PutScratch(s)
		buf := make([]int32, 0, batchSize)
		ecc := make([]int32, batchSize)
		sum := make([]int64, batchSize)
		nbuf := make([]int32, 0, src.DegreeBound())
		for b := 0; b < batches; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			nbuf = run(b, buf, s, ecc, sum, nbuf)
		}
		return nil
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topo.GetScratch(n)
			defer topo.PutScratch(s)
			buf := make([]int32, 0, batchSize)
			ecc := make([]int32, batchSize)
			sum := make([]int64, batchSize)
			nbuf := make([]int32, 0, src.DegreeBound())
			for ctx.Err() == nil {
				b := int(atomic.AddInt64(&next, 1))
				if b >= batches {
					return
				}
				nbuf = run(b, buf, s, ecc, sum, nbuf)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
