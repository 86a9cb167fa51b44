package netsim

//lint:file-ignore ctxflow router table construction runs once per network, capped by serve's SimMaxNodes check and by checkTableSize's 16384-node limit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// This file is the routing-table core every table router is built on.
// A network-level table keeps destination-major rows, and each row starts
// as its destination's BFS distance vector over the alive arcs.  Those
// are symmetric (Degrade kills both directions of a link), so topo's
// MSBFS computes 64 rows per pass over the alive CSR, and a degraded
// network is the same traversal on the alive induced subgraph.  Every
// such router reads a row with one tie-break, minimalPort: the lowest
// alive port onto a shortest alive path.  FaultAwareRouter and
// MultipathRouter's fallback tier keep the distance rows and scan ports
// per decision; TableRouter stores the chosen port, and on a healthy
// super-IPG over a vertex-transitive nucleus only for one destination per
// cluster (orbitMaps).  HSNRouter's nucleus table alone keeps the port
// that first discovered each node, by a scalar reverse BFS.

// maxTableNodes bounds every all-pairs table: an n x n int16 table is
// 512 MiB at 16384 nodes, and node ids below it fit a uint16.
const maxTableNodes = 1 << 14

// checkTableSize rejects node counts an all-pairs table cannot hold.
func checkTableSize(n int, name string) error {
	if err := checkNodeCount(n); err != nil {
		return err
	}
	if n > maxTableNodes {
		return fmt.Errorf("netsim: %s limited to %d nodes, got %d", name, maxTableNodes, n)
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
// arc without an alive reverse is an error.  Of the network builders only
// BuildSuperIPG's directed CN produces one, and Degrade kills both
// directions of a link.
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

// distanceRows fills rows with the distance rows of dsts, at most
// destBatch destinations, in one MSBFS pass over net's alive CSR c:
// rows[i*n+u] is u's hop distance to dsts[i] over alive arcs, -1 when u
// cannot reach it.  A dead destination's row is all -1.
func distanceRows(net *Network, c *topo.CSR, dsts []int32, rows []int16, ms *topo.MSBFSScratch) {
	var ecc [destBatch]int32
	var sum [destBatch]int64
	k := len(dsts)
	topo.MSBFSSourceInto(c, dsts, ms, ecc[:k], sum[:k], rows[:k*net.N], nil)
	for i, dst := range dsts {
		if net.nodeDead(int(dst)) {
			rows[i*net.N+int(dst)] = -1 // c isolates a dead node, so the rest of its row is -1
		}
	}
}

// idRange writes the node ids [lo, hi), at most destBatch of them, into
// buf and returns them.
func idRange(buf *[destBatch]int32, lo, hi int) []int32 {
	ids := buf[:hi-lo]
	for i := range ids {
		//lint:ignore indextrunc lo+i < n <= 16384 (checkTableSize)
		ids[i] = int32(lo + i)
	}
	return ids
}

// perBatch calls a worker for every batch of up to destBatch consecutive
// table rows [lo, hi) in [0, rows) over a GOMAXPROCS pool.  newWorker
// runs once per worker on the caller's goroutine, so the scratch its
// closure owns needs no locking; each call also gets the worker's MSBFS
// scratch from the topo pool, sized for n nodes.  The first error stops
// every worker and is returned.  Each batch must write only its own
// outputs, which keeps the results independent of the worker count.
func perBatch(n, rows int, newWorker func() func(lo, hi int, ms *topo.MSBFSScratch) error) error {
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	batches := (rows + destBatch - 1) / destBatch
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
				lo := b * destBatch
				if err := visit(lo, min(lo+destBatch, rows), s.MS(n)); err != nil {
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
		if v >= 0 && dist[v] == d-1 && !net.portDead(u, p) {
			return p
		}
	}
	return -1
}

// orbitMaps lets a table router keep one row per cluster of a super-IPG.
// A nucleus map that commutes with every nucleus generator
// (nucleus.Nucleus.VertexTransitive), applied to every group of a label
// at once, commutes with every generator of the super-IPG: the lifted
// nucleus generators act on the first group alone and the
// super-generators move whole groups.  Ports are generator indices, so
// such a map σ keeps ports as well as distances: Port(σ(v), p) =
// σ(Port(v, p)).  minimalPort reads only ports and distances, so its
// choice at (σ(cur), σ(dst)) is the image of its choice at (cur, dst)
// under σ, which is the same port.  For each nucleus state s, σ_s is the
// map carrying s to the nucleus seed; it carries every node whose first
// group is s to a representative, a node whose first group is the seed.
type orbitMaps struct {
	// reps lists the representatives, the multiples of M, one per
	// cluster: N/M in all.
	reps []int32
	// sigma[s*n+v] is σ_s(v).
	sigma []uint16
	// state[v] is v's nucleus state, the address of its first group
	// (v % M), and row[v] the index in reps of σ_state[v](v).
	state, row []uint16
}

// superOrbits returns the orbit maps of w over its port map ports, or
// nil when a map fails to keep ports or to carry a node to a
// representative, which the nucleus's vertex-transitive proof rules
// out.  Node v's nucleus state is its digit 0, v % M, and the
// representatives are the multiples of M, whose first group is the
// nucleus seed (address 0).  The caller bounds the node count by
// maxTableNodes, so node ids and nucleus states fit a uint16.
func superOrbits(w *superipg.Network, ports *topo.PortMap) *orbitMaps {
	n, M := ports.N(), w.Nuc.M
	o := &orbitMaps{sigma: make([]uint16, M*n), state: make([]uint16, n), row: make([]uint16, n)}
	o.reps = make([]int32, n/M)
	for i := range o.reps {
		//lint:ignore indextrunc i*M < n <= 16384 (maxTableNodes)
		o.reps[i] = int32(i * M)
	}
	for v := range o.state {
		o.state[v] = uint16(v % M) // v % M < M <= n <= 16384 (maxTableNodes)
	}
	// σ_s carries the node whose groups all hold s, address s·(1 + M +
	// … + M^(l-1)), to the seed, node 0, and the rest of σ_s follows from
	// σ(x·g) = σ(x)·g.
	ones := 0
	for range w.L {
		ones = ones*M + 1
	}
	queue := make([]int32, 0, n)
	taken := make([]bool, n)
	for s := 0; s < M; s++ {
		if !lockstep(ports, s*ones, 0, o.sigma[s*n:(s+1)*n], queue, taken) {
			return nil
		}
	}
	for v := range o.row {
		r := int(o.sigma[int(o.state[v])*n+v])
		if r%M != 0 {
			return nil
		}
		o.row[v] = uint16(r / M) // r / M < n <= 16384 (maxTableNodes)
	}
	return o
}

// lockstep fills sig with the map that sends from to to and keeps every
// port, Port(sig[v], p) = sig[Port(v, p)], by a BFS from from that walks
// the image along the same ports.  It reports false unless every node is
// reached, every arc agrees and the map is one-to-one.  queue needs
// capacity n; taken is n-long scratch.
func lockstep(ports *topo.PortMap, from, to int, sig []uint16, queue []int32, taken []bool) bool {
	const unset = 1<<16 - 1 // no node id: n <= 16384 (maxTableNodes)
	for v := range sig {
		sig[v] = unset
	}
	clear(taken)
	sig[from], taken[to] = uint16(to), true // to < n <= 16384 (maxTableNodes)
	//lint:ignore indextrunc from < n <= 16384 (maxTableNodes)
	queue = append(queue[:0], int32(from))
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		out, image := ports.PortRow(int(v)), ports.PortRow(int(sig[v]))
		if len(out) != len(image) {
			return false
		}
		for p, u := range out {
			su := image[p]
			switch {
			case (u < 0) != (su < 0):
				return false
			case u < 0:
			case sig[u] == unset:
				if taken[su] {
					return false
				}
				sig[u], taken[su] = uint16(su), true // su < n <= 16384
				queue = append(queue, u)
			case int32(sig[u]) != su:
				return false
			}
		}
	}
	return len(queue) == len(sig)
}
