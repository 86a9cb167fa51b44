package netsim

//lint:file-ignore ctxflow router table construction runs once per network, capped by serve's SimMaxNodes check and by the explicit 16384-node TableRouter limit

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/perm"
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
	// group[v*l+i] is the nucleus node id holding group i of node v.
	group []uint16
	l     int
	// nextGen[b*nucM+a] is the nucleus generator moving nucleus node a one
	// hop toward b: destination-major, one BFS row per destination.
	nextGen []int16
	m, nucM int
}

// swapFamily reports whether w routes hierarchically with HSNRouter.
func swapFamily(w *superipg.Network) bool {
	return w.Family == "HSN" || w.Family == "HCN" || w.Family == "RCC"
}

// NewHSNRouter precomputes label digests and the nucleus routing table.
func NewHSNRouter(w *superipg.Network, g *ipg.Graph) (*HSNRouter, error) {
	if !swapFamily(w) {
		return nil, fmt.Errorf("netsim: HSNRouter supports swap families, not %s", w.Family)
	}
	// The nucleus table is an all-pairs table like TableRouter's, so it
	// takes the same bound (which also fits the uint16 group ids).
	if err := checkTableSize(w.Nuc.M, "HSNRouter nucleus"); err != nil {
		return nil, err
	}
	if err := checkNodeCount(g.N()); err != nil {
		return nil, err
	}
	ng, err := w.Nuc.Build()
	if err != nil {
		return nil, err
	}
	r := &HSNRouter{w: w, l: w.L, m: w.SymbolLen(), nucM: ng.N()}
	r.group = make([]uint16, g.N()*w.L)
	var lbl perm.Label
	for v := 0; v < g.N(); v++ {
		lbl = g.LabelInto(v, lbl)
		for i := 0; i < w.L; i++ {
			id := ng.NodeID(lbl.Group(r.m, i))
			if id < 0 {
				return nil, fmt.Errorf("netsim: group %d of node %d is not a node of nucleus %s", i, v, w.Nuc.Name)
			}
			r.group[v*w.L+i] = uint16(id)
		}
	}
	if r.nextGen, err = nucleusNextGen(ng); err != nil {
		return nil, err
	}
	return r, nil
}

// nucleusNextGen builds the all-pairs next-generator table of the nucleus
// graph ng by the core's reverse BFS from every destination.  The reverse
// arcs into v are v's generator images in generator order, each carrying
// the lowest generator that leads back to v (the nucleus generator sets
// here are inverse-closed, so the images of v are exactly the nodes with
// an arc to v); that order fixes the table's tie-breaks.
func nucleusNextGen(ng *ipg.Graph) ([]int16, error) {
	M := ng.N()
	if err := checkNodeCount(M); err != nil {
		return nil, err
	}
	ra := &reverseArcs{off: make([]uint32, 1, M+1)}
	for v := 0; v < M; v++ {
		for gi := 0; gi < ng.NumGens(); gi++ {
			u := ng.Neighbor(v, gi)
			if u == v {
				continue
			}
			for gj := 0; gj < ng.NumGens(); gj++ {
				if ng.Neighbor(u, gj) == v {
					ra.src = append(ra.src, int32(u))
					ra.port = append(ra.port, int16(gj))
					break
				}
			}
		}
		ra.off = append(ra.off, uint32(len(ra.src)))
	}
	table := make([]int16, M*M)
	dist := make([]int16, M)
	queue := make([]int32, 0, M)
	for dst := 0; dst < M; dst++ {
		if queue = ra.bfs(dst, dist, table[dst*M:(dst+1)*M], queue); len(queue) < M {
			return nil, fmt.Errorf("netsim: nucleus %s disconnected", ng.Name)
		}
	}
	return table, nil
}

// NextPort implements Router.  Ports coincide with generator indices of the
// super-IPG.
func (r *HSNRouter) NextPort(cur, dst int) int {
	ca := r.group[cur*r.l:]
	da := r.group[dst*r.l:]
	for i := r.l - 1; i >= 1; i-- {
		if ca[i] == da[i] {
			continue
		}
		if ca[0] == da[i] {
			// Front holds the needed content: swap it into place via T_{i+1}.
			return r.w.NumNucGens() + (i - 1)
		}
		return int(r.nextGen[int(da[i])*r.nucM+int(ca[0])])
	}
	if ca[0] != da[0] {
		return int(r.nextGen[int(da[0])*r.nucM+int(ca[0])])
	}
	return -1
}

// TableRouter is an all-pairs next-port table on an arbitrary port
// network: each cell holds minimalPort's choice, the lowest alive port
// onto a shortest alive path, so it answers exactly like the
// FaultAwareRouter of the same network.  Usable for any family at small
// N.
type TableRouter struct {
	n int
	// table[row*n+cur] is the port at cur toward the row's destination
	// (-1 at that destination): destination-major, so each MSBFS batch
	// fills contiguous rows.  Row i belongs to destination i, or to
	// orbit.reps[i] when orbit is set.
	table []int16
	orbit *orbitMaps
}

// NewTableRouter builds the table with the routing core: MSBFS distance
// rows over the alive arcs, 64 destinations per pass, each reduced to
// its ports by minimalPort.  On a healthy super-IPG that BuildSuperIPG
// gave orbit maps it keeps only the representatives' rows, N/M x N
// cells instead of N x N, and routes (cur, dst) as (σ(cur), σ(dst)) for
// dst's σ.  Rows do not depend on the worker count, so neither does the
// table.  An unreachable pair is an error, and so is an alive arc
// without an alive reverse.
func NewTableRouter(net *Network) (*TableRouter, error) {
	n := net.N
	if err := checkTableSize(n, "TableRouter"); err != nil {
		return nil, err
	}
	c, err := aliveCSR(net)
	if err != nil {
		return nil, err
	}
	tr := &TableRouter{n: n}
	rows := n
	if net.orbit != nil && !net.Faulty() {
		tr.orbit = net.orbit
		rows = len(tr.orbit.reps)
	}
	tr.table = make([]int16, rows*n)
	err = perBatch(n, rows, func() func(int, int, *topo.MSBFSScratch) error {
		dist := make([]int16, min(destBatch, rows)*n)
		var ids [destBatch]int32
		return func(lo, hi int, ms *topo.MSBFSScratch) error {
			dsts := idRange(&ids, lo, hi)
			if tr.orbit != nil {
				dsts = tr.orbit.reps[lo:hi]
			}
			distanceRows(net, c, dsts, dist, ms)
			for i, dst := range dsts {
				d, row := dist[i*n:(i+1)*n], tr.table[(lo+i)*n:(lo+i+1)*n]
				for u := range row {
					p := minimalPort(net, d, u)
					if p < 0 && u != int(dst) {
						return fmt.Errorf("netsim: network disconnected (%d cannot reach %d)", u, dst)
					}
					//lint:ignore indextrunc ports per node are bounded by PortMap arity, far below MaxInt16
					row[u] = int16(p)
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// NextPort implements Router.
func (tr *TableRouter) NextPort(cur, dst int) int {
	if o := tr.orbit; o != nil {
		sig := o.sigma[int(o.state[dst])*tr.n:]
		return int(tr.table[int(o.row[dst])*tr.n+int(sig[cur])])
	}
	return int(tr.table[dst*tr.n+cur])
}
