package netsim

//lint:file-ignore ctxflow router table construction runs once per network, capped by serve's SimMaxNodes check and by the explicit 16384-node TableRouter limit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ipg/internal/ipg"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// HypercubeRouter routes dimension-order on a hypercube whose port b flips
// address bit b (lowest differing bit first, so on-chip dimensions are
// corrected before off-chip ones when chips are low-order subcubes).  The
// arithmetic lives in topo.HypercubeNextDim, shared with the graph-level
// helpers in internal/topology.
type HypercubeRouter struct{ D int }

// NextPort implements Router.
func (r HypercubeRouter) NextPort(cur, dst int) int {
	return topo.HypercubeNextDim(cur, dst)
}

// TorusRouter routes dimension-order with minimal wrap on a k-ary n-cube
// whose ports are (2d) = +1 in dimension d, (2d+1) = -1 in dimension d.
// The arithmetic lives in topo.TorusNextHop, shared with the graph-level
// helpers in internal/topology.
type TorusRouter struct{ K, Dims int }

// NextPort implements Router.
func (r TorusRouter) NextPort(cur, dst int) int {
	dim, dir := topo.TorusNextHop(r.K, r.Dims, cur, dst)
	if dim < 0 {
		return -1
	}
	if dir > 0 {
		return 2 * dim
	}
	return 2*dim + 1
}

// HSNRouter routes hierarchically on an HSN (or HCN/RCC skeleton): fix the
// highest differing group i >= 2 by steering the front group to the
// destination's group-i content with nucleus hops and then swapping with
// T_i; finish by steering the front group to the destination's group-1
// content.  Intercluster hops equal the number of differing groups beyond
// the first — the optimum that Theorem 4.1's routing achieves.
type HSNRouter struct {
	w *superipg.Network
	// groupAddr[v*l+i] is the nucleus address of group i of node v.
	groupAddr []uint16
	l         int
	// nextGen[a*M+b] is the nucleus generator moving a nucleus node with
	// address a one hop toward address b.
	nextGen []int16
	m       int
}

// NewHSNRouter precomputes label digests and the nucleus routing table.
func NewHSNRouter(w *superipg.Network, g *ipg.Graph) (*HSNRouter, error) {
	if w.Family != "HSN" && w.Family != "HCN" && w.Family != "RCC" {
		return nil, fmt.Errorf("netsim: HSNRouter supports swap families, not %s", w.Family)
	}
	if w.Nuc.M > 1<<16 {
		return nil, fmt.Errorf("netsim: nucleus too large for HSNRouter")
	}
	if err := checkNodeCount(g.N()); err != nil {
		return nil, err
	}
	r := &HSNRouter{w: w, l: w.L, m: w.SymbolLen()}
	r.groupAddr = make([]uint16, g.N()*w.L)
	for v := 0; v < g.N(); v++ {
		lbl := g.Label(v)
		for i := 0; i < w.L; i++ {
			a, err := w.Nuc.AddressOf(lbl.Group(r.m, i))
			if err != nil {
				return nil, err
			}
			r.groupAddr[v*w.L+i] = uint16(a)
		}
	}
	table, err := nucleusNextGen(w)
	if err != nil {
		return nil, err
	}
	r.nextGen = table
	return r, nil
}

// nucleusNextGen builds the all-pairs next-generator table of the nucleus
// by reverse BFS from every destination.
func nucleusNextGen(w *superipg.Network) ([]int16, error) {
	ng, err := w.Nuc.Build()
	if err != nil {
		return nil, err
	}
	M := ng.N()
	if err := checkNodeCount(M); err != nil {
		return nil, err
	}
	// Node ids of the nucleus graph ordered by address.
	idByAddr := make([]int32, M)
	addrByID := make([]int32, M)
	for v := 0; v < M; v++ {
		a, err := w.Nuc.AddressOf(ng.Label(v))
		if err != nil {
			return nil, err
		}
		idByAddr[a] = int32(v)
		addrByID[v] = int32(a)
	}
	table := make([]int16, M*M)
	for i := range table {
		table[i] = -1
	}
	dist := make([]int32, M)
	queue := make([]int32, 0, M)
	for dstAddr := 0; dstAddr < M; dstAddr++ {
		dst := idByAddr[dstAddr]
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = queue[:0]
		queue = append(queue, dst)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			// Predecessors: nodes u with u --gen--> v set their table entry.
			for gi := 0; gi < ng.NumGens(); gi++ {
				// Use inverse walk: for u such that gen(u) = v, iterate all
				// gens from v on the inverse graph.  The nucleus generator
				// sets in this package are inverse-closed, so neighbors of
				// v are exactly the nodes with an edge to v.
				u := int32(ng.Neighbor(int(v), gi))
				if u == v || dist[u] >= 0 {
					continue
				}
				// Find a generator carrying u to v.
				for gj := 0; gj < ng.NumGens(); gj++ {
					if int32(ng.Neighbor(int(u), gj)) == v {
						dist[u] = dist[v] + 1
						table[int(addrByID[u])*M+dstAddr] = int16(gj)
						queue = append(queue, u)
						break
					}
				}
			}
		}
		for u := 0; u < M; u++ {
			if dist[u] < 0 {
				return nil, fmt.Errorf("netsim: nucleus %s disconnected", w.Nuc.Name)
			}
		}
	}
	return table, nil
}

// NextPort implements Router.  Ports coincide with generator indices of the
// super-IPG.
func (r *HSNRouter) NextPort(cur, dst int) int {
	ca := r.groupAddr[cur*r.l:]
	da := r.groupAddr[dst*r.l:]
	M := r.w.Nuc.M
	for i := r.l - 1; i >= 1; i-- {
		if ca[i] == da[i] {
			continue
		}
		if ca[0] == da[i] {
			// Front holds the needed content: swap it into place via T_{i+1}.
			return r.w.NumNucGens() + (i - 1)
		}
		return int(r.nextGen[int(ca[0])*M+int(da[i])])
	}
	if ca[0] != da[0] {
		return int(r.nextGen[int(ca[0])*M+int(da[0])])
	}
	return -1
}

// TableRouter is a full all-pairs next-port table built by reverse BFS on
// an arbitrary port network; usable for any family at small N.
type TableRouter struct {
	n int
	// table[dst*n+cur] is the port at cur toward dst (-1 at dst itself):
	// destination-major, so each BFS fills one contiguous row.
	table []int16
}

// NewTableRouter builds the table (O(N^2) memory, O(N*E) time).  The
// reverse adjacency is aliveReverseCSR's flat arena (every arc, on a
// healthy network), and the per-destination reverse BFS runs
// destination-parallel over a worker pool: each destination writes only
// its own table row, which doubles as the BFS visited set, so workers
// never touch the same entries.  Discovery order within each BFS — source
// ascending, then port ascending — is identical to the serial build, so
// the minimal-port tie-breaks and therefore the table are bit-identical,
// worker count notwithstanding.
func NewTableRouter(net *Network) (*TableRouter, error) {
	n := net.N
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	if n > 1<<14 {
		return nil, fmt.Errorf("netsim: TableRouter limited to 16384 nodes, got %d", n)
	}
	tr := &TableRouter{n: n, table: make([]int16, n*n)}
	revOff, revSrc, revPort := aliveReverseCSR(net)

	var firstErr error
	var errMu sync.Mutex
	var next int64 = -1
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topo.GetScratch(n)
			defer topo.PutScratch(s)
			queue := s.Queue
			for {
				dst := int(atomic.AddInt64(&next, 1))
				if dst >= n {
					break
				}
				// A node is visited once it has a port (dst itself never
				// gets one, so it is skipped explicitly).
				row := tr.table[dst*n : (dst+1)*n]
				for i := range row {
					row[i] = -1
				}
				queue = append(queue[:0], int32(dst))
				for qi := 0; qi < len(queue); qi++ {
					v := queue[qi]
					for i := revOff[v]; i < revOff[v+1]; i++ {
						if u := revSrc[i]; row[u] < 0 && int(u) != dst {
							row[u] = revPort[i]
							queue = append(queue, u)
						}
					}
				}
				if len(queue) < n {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("netsim: network disconnected (%d of %d nodes cannot reach %d)", n-len(queue), n, dst)
					}
					errMu.Unlock()
				}
			}
			// Hand any reallocated queue back so the pool keeps the grown
			// buffer instead of the stale pre-append slice.
			s.Queue = queue
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return tr, nil
}

// NextPort implements Router.
func (tr *TableRouter) NextPort(cur, dst int) int { return int(tr.table[dst*tr.n+cur]) }

// aliveReverseCSR builds the reverse adjacency over alive arcs as flat
// count-then-fill arenas: the arcs into v are (revSrc[i], revPort[i]) for
// i in [revOff[v], revOff[v+1]), in (source asc, port asc) order because
// both passes iterate sources then ports ascending.  On a healthy network
// every arc is alive; self-loop ports are skipped.
func aliveReverseCSR(net *Network) (revOff []uint32, revSrc []int32, revPort []int16) {
	n := net.N
	revOff = make([]uint32, n+1)
	aliveArc := func(u, p int, v int32) bool {
		return v >= 0 && int(v) != u && !net.nodeDead(u) && !net.portDead(u, p)
	}
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(u, p, v) {
				revOff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		revOff[v+1] += revOff[v]
	}
	revSrc = make([]int32, revOff[n])
	revPort = make([]int16, revOff[n])
	cursor := make([]uint32, n)
	copy(cursor, revOff[:n])
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(u, p, v) {
				i := cursor[v]
				//lint:ignore indextrunc u < n <= 16384, well under math.MaxInt32
				revSrc[i] = int32(u)
				//lint:ignore indextrunc ports per node are bounded by PortMap arity, far below MaxInt16
				revPort[i] = int16(p)
				cursor[v] = i + 1
			}
		}
	}
	return revOff, revSrc, revPort
}
