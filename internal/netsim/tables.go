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
// An all-pairs router is one reverse BFS per destination over the alive
// arcs: TableRouter keeps the port that first discovered each node,
// FaultAwareRouter and MultipathRouter's fallback tier keep the distance
// and pick minimalPort, and HSNRouter runs the same BFS on its nucleus.
// A degraded network is simply the BFS on the alive induced subgraph, so
// faults need no second kernel.

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
	aliveArc := func(u, p int, v int32) bool {
		return v >= 0 && int(v) != u && !net.nodeDead(u) && !net.portDead(u, p)
	}
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(u, p, v) {
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
			if aliveArc(u, p, v) {
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

// bfs runs the reverse BFS from dst: dist[u] becomes u's hop distance to
// dst, -1 when u cannot reach it.  When port is non-nil, port[u] becomes
// the port of the arc that first discovered u (-1 at dst and at
// unreached nodes).  queue needs capacity len(dist); the returned queue
// lists the reached nodes in discovery order.  Distances fit int16
// because every caller bounds the node count with checkTableSize.
func (ra *reverseArcs) bfs(dst int, dist, port []int16, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	//lint:ignore indextrunc dst < len(dist) <= math.MaxInt32 (checkNodeCount)
	queue = append(queue[:0], int32(dst))
	// Locals, not ra's fields: the stores below would force reloads.
	off, src := ra.off, ra.src
	if port == nil {
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			dv := dist[v] + 1
			for _, u := range src[off[v]:off[v+1]] {
				if dist[u] < 0 {
					dist[u] = dv
					queue = append(queue, u)
				}
			}
		}
		return queue
	}
	for i := range port {
		port[i] = -1
	}
	arcPort := ra.port
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

// perDestination calls a worker for every destination in [0, n) over a
// GOMAXPROCS pool.  newWorker runs once per worker on the caller's
// goroutine, so the scratch its closure owns needs no locking; the closure
// gets a BFS queue of capacity n from the topo scratch pool.
// The first error stops every worker and is returned.  Each destination
// must write only its own outputs, which keeps the results independent of
// the worker count.
func perDestination(n int, newWorker func() func(dst int, queue []int32) error) error {
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	for w := 0; w < workers; w++ {
		visit := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topo.GetScratch(n)
			defer topo.PutScratch(s)
			for {
				dst := int(next.Add(1) - 1)
				if dst >= n {
					return
				}
				if err := visit(dst, s.Queue); err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(int64(n)) // every worker's next fetch is past the end
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
