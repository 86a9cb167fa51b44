package netsim

//lint:file-ignore ctxflow router table construction runs once per network, capped by serve's SimMaxNodes check and by checkTableSize's 16384-node limit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ipg/internal/topo"
)

// This file is the routing-table core every table router is built on.
// An all-pairs router keeps one destination-major row per destination,
// and a row comes from one of two traversals:
//
//   - FaultAwareRouter and MultipathRouter's fallback tier keep distance
//     rows and pick minimalPort.  A destination's row is its BFS distance
//     vector over the alive arcs, which are symmetric (Degrade kills both
//     directions of a link), so topo's MSBFS computes 64 rows per pass
//     over the alive CSR.
//   - TableRouter and HSNRouter's nucleus keep the port that first
//     discovered each node.  That tie-break depends on discovery order, so
//     they run one scalar reverse BFS per destination.
//
// A degraded network is either traversal on the alive induced subgraph,
// so faults need no second kernel.

// checkTableSize rejects node counts an all-pairs table cannot hold: an
// n x n int16 table is 512 MiB at the 16384-node limit.
func checkTableSize(n int, name string) error {
	if err := checkNodeCount(n); err != nil {
		return err
	}
	if n > 1<<14 {
		return fmt.Errorf("netsim: %s limited to 16384 nodes, got %d", name, n)
	}
	return nil
}

// reverseArcs lists each node's incoming arcs as flat count-then-fill
// arenas: the arcs into v are (src[i], port[i]) for i in
// [off[v], off[v+1]), port being the source's port index.  A BFS over
// them discovers nodes in list order, so the order fixes every
// tie-break.
type reverseArcs struct {
	off  []uint32
	src  []int32
	port []int16
}

// aliveReverseArcs builds the reverse arcs of net's alive arcs in (source
// asc, port asc) order, because both passes iterate sources then ports
// ascending.  On a healthy network every arc is alive; self-loop ports
// are skipped.
func aliveReverseArcs(net *Network) *reverseArcs {
	n := net.N
	ra := &reverseArcs{off: make([]uint32, n+1)}
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(net, u, p, v) {
				ra.off[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		ra.off[v+1] += ra.off[v]
	}
	ra.src = make([]int32, ra.off[n])
	ra.port = make([]int16, ra.off[n])
	cursor := make([]uint32, n)
	copy(cursor, ra.off[:n])
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(net, u, p, v) {
				i := cursor[v]
				//lint:ignore indextrunc u < n <= 16384 (checkTableSize), well under math.MaxInt32
				ra.src[i] = int32(u)
				//lint:ignore indextrunc ports per node are bounded by PortMap arity, far below MaxInt16
				ra.port[i] = int16(p)
				cursor[v] = i + 1
			}
		}
	}
	return ra
}

// aliveArc reports whether port p of u, leading to v, is an alive arc
// between two distinct nodes.
func aliveArc(net *Network, u, p int, v int32) bool {
	return v >= 0 && int(v) != u && !net.nodeDead(u) && !net.portDead(u, p)
}

// bfs runs the reverse BFS from dst: dist[u] becomes u's hop distance to
// dst and port[u] the port of the arc that first discovered u.  Both are
// -1 at nodes that cannot reach dst, and port[dst] is -1.  queue needs
// capacity len(dist); the returned queue lists the reached nodes in
// discovery order.  Distances fit int16 because every caller bounds the
// node count with checkTableSize.
func (ra *reverseArcs) bfs(dst int, dist, port []int16, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	for i := range port {
		port[i] = -1
	}
	dist[dst] = 0
	//lint:ignore indextrunc dst < len(dist) <= math.MaxInt32 (checkNodeCount)
	queue = append(queue[:0], int32(dst))
	// Locals, not ra's fields: the stores below would force reloads.
	off, src, arcPort := ra.off, ra.src, ra.port
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		dv := dist[v] + 1
		for i, end := off[v], off[v+1]; i < end; i++ {
			if u := src[i]; dist[u] < 0 {
				dist[u] = dv
				port[u] = arcPort[i]
				queue = append(queue, u)
			}
		}
	}
	return queue
}

// aliveCSR returns net's alive arcs as a CSR for distanceRows, with
// parallel ports collapsed and self-loop ports skipped.  MSBFS reads a
// row as a node's in-neighbors, so the arcs must be symmetric: an alive
// arc without an alive reverse is an error.  No network builder produces
// one, and Degrade kills both directions of a link.
func aliveCSR(net *Network) (*topo.CSR, error) {
	c, err := topo.BuildArcs(net.N, func(arc func(u, v int)) {
		for u := 0; u < net.N; u++ {
			for p, v := range net.Ports.PortRow(u) {
				if aliveArc(net, u, p, v) {
					arc(u, int(v))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < net.N; u++ {
		for _, v := range c.Row(u) {
			if !c.HasArc(int(v), u) {
				return nil, fmt.Errorf("netsim: %s: alive arc %d->%d has no alive reverse; distance tables need symmetric links", net.Name, u, v)
			}
		}
	}
	return c, nil
}

// destBatch is the MSBFS lane width: one destination per bit of a uint64.
const destBatch = 64

// distanceRows fills rows with the distance rows of destinations
// [lo, hi), at most destBatch of them, in one MSBFS pass over net's alive
// CSR c: rows[(dst-lo)*n+u] is u's hop distance to dst over alive arcs,
// -1 when u cannot reach it.  A dead destination's row is all -1.
func distanceRows(net *Network, c *topo.CSR, lo, hi int, rows []int16, ms *topo.MSBFSScratch) {
	var srcs, ecc [destBatch]int32
	var sum [destBatch]int64
	k := hi - lo
	for i := range srcs[:k] {
		//lint:ignore indextrunc lo+i < n <= 16384 (checkTableSize)
		srcs[i] = int32(lo + i)
	}
	topo.MSBFSSourceInto(c, srcs[:k], ms, ecc[:k], sum[:k], rows[:k*net.N], nil)
	for dst := lo; dst < hi; dst++ {
		if net.nodeDead(dst) {
			rows[(dst-lo)*net.N+dst] = -1 // c isolates a dead node, so the rest of its row is -1
		}
	}
}

// perBatch calls a worker for every batch of up to size consecutive
// destinations [lo, hi) in [0, n) over a GOMAXPROCS pool.  newWorker runs
// once per worker on the caller's goroutine, so the scratch its closure
// owns needs no locking; each call also gets the worker's traversal
// scratch from the topo pool, sized for n nodes.  The first error stops
// every worker and is returned.  Each batch must write only its own
// outputs, which keeps the results independent of the worker count.
func perBatch(n, size int, newWorker func() func(lo, hi int, s *topo.Scratch) error) error {
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	batches := (n + size - 1) / size
	workers := max(1, min(runtime.GOMAXPROCS(0), batches))
	for w := 0; w < workers; w++ {
		visit := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topo.GetScratch(n)
			defer topo.PutScratch(s)
			for {
				b := int(next.Add(1) - 1)
				if b >= batches {
					return
				}
				lo := b * size
				if err := visit(lo, min(lo+size, n), s); err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(int64(batches)) // every worker's next fetch is past the end
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// minimalPort returns the lowest alive port of u onto a shortest alive
// path toward the destination dist was computed for, or -1 when u is that
// destination or cannot reach it.
func minimalPort(net *Network, dist []int16, u int) int {
	d := dist[u]
	if d <= 0 {
		return -1
	}
	for p, v := range net.Ports.PortRow(u) {
		if v >= 0 && !net.portDead(u, p) && dist[v] == d-1 {
			return p
		}
	}
	return -1
}
