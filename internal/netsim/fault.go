package netsim

//lint:file-ignore ctxflow degradation and fault-aware table builds run once per request on networks capped by serve's SimMaxNodes check; the round-level runners poll ctx once per simulated round

import (
	"fmt"
	"math/rand"

	"ipg/internal/fault"
	"ipg/internal/topo"
)

// This file degrades simulated networks with the failure models of
// internal/fault and routes around the damage.  A degraded Network carries
// DeadNode/DeadPort masks; the simulator then stamps every packet with a
// TTL, diverts (oblivious) routing decisions off dead ports onto random
// alive ports, and accounts every packet exactly once as delivered,
// dropped, or in flight.  FaultAwareRouter replaces the oblivious router
// with shortest alive paths, so it never misroutes and drops only packets
// whose destination is genuinely unreachable.

// FaultSummary reports the failures Degrade sampled.
type FaultSummary struct {
	Mode      fault.Mode
	Seed      int64
	DeadNodes []int32    // failed nodes (node and chip modes)
	DeadLinks [][2]int32 // failed undirected links, canonical u < v (link mode)
	DeadChips []int32    // failed chips (chip mode)
}

// Degrade returns a copy of base with spec's failures applied: dead nodes
// neither inject, forward, nor receive; dead links lose every parallel
// port in both directions.  The base network is not modified and the copy
// shares its port map.  The adversarial mode targets graph cuts and has no
// port-level analogue here; ask the metrics layer for it instead.
func Degrade(base *Network, spec fault.Spec) (*Network, *FaultSummary, error) {
	if err := base.Validate(); err != nil {
		return nil, nil, err
	}
	if base.Faulty() {
		return nil, nil, fmt.Errorf("netsim: %s is already degraded", base.Name)
	}
	mode := spec.Mode
	if mode == "" {
		mode = fault.Nodes
	}
	sum := &FaultSummary{Mode: mode, Seed: spec.Seed}
	d := *base
	if spec.Count < 0 {
		return nil, nil, fmt.Errorf("netsim: negative failure count %d", spec.Count)
	}
	if spec.Count == 0 {
		return &d, sum, nil
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	switch mode {
	case fault.Nodes:
		if spec.Count >= base.N {
			return nil, nil, fmt.Errorf("netsim: %d node failures would leave no node of %d alive", spec.Count, base.N)
		}
		d.DeadNode = make([]bool, base.N)
		for len(sum.DeadNodes) < spec.Count {
			v := rng.Intn(base.N)
			if d.DeadNode[v] {
				continue
			}
			d.DeadNode[v] = true
			//lint:ignore indextrunc v < base.N, which New bounds via checkNodeCount
			sum.DeadNodes = append(sum.DeadNodes, int32(v))
		}
	case fault.Links:
		pairs := undirectedLinks(base)
		if spec.Count > len(pairs) {
			return nil, nil, fmt.Errorf("netsim: %d link failures exceed the %d links present", spec.Count, len(pairs))
		}
		d.DeadPort = make([][]bool, base.N)
		for u := 0; u < base.N; u++ {
			d.DeadPort[u] = make([]bool, base.Ports.Arity(u))
		}
		killed := make(map[int]bool, spec.Count)
		for len(sum.DeadLinks) < spec.Count {
			i := rng.Intn(len(pairs))
			if killed[i] {
				continue
			}
			killed[i] = true
			pr := pairs[i]
			killPorts(&d, int(pr[0]), int(pr[1]))
			killPorts(&d, int(pr[1]), int(pr[0]))
			sum.DeadLinks = append(sum.DeadLinks, pr)
		}
	case fault.Chips:
		if base.ClusterOf == nil {
			return nil, nil, fmt.Errorf("netsim: %s has no chip assignment for chip faults", base.Name)
		}
		nc := 0
		for _, ch := range base.ClusterOf {
			if int(ch) >= nc {
				nc = int(ch) + 1
			}
		}
		if spec.Count >= nc {
			return nil, nil, fmt.Errorf("netsim: %d chip failures would leave none of %d chips alive", spec.Count, nc)
		}
		dead := make(map[int32]bool, spec.Count)
		for len(sum.DeadChips) < spec.Count {
			//lint:ignore indextrunc nc-1 is the max of ClusterOf's int32 values, so it fits
			ch := int32(rng.Intn(nc))
			if dead[ch] {
				continue
			}
			dead[ch] = true
			sum.DeadChips = append(sum.DeadChips, ch)
		}
		d.DeadNode = make([]bool, base.N)
		for v, ch := range base.ClusterOf {
			if dead[ch] {
				d.DeadNode[v] = true
				//lint:ignore indextrunc v < base.N, which New bounds via checkNodeCount
				sum.DeadNodes = append(sum.DeadNodes, int32(v))
			}
		}
		if len(sum.DeadNodes) == base.N {
			return nil, nil, fmt.Errorf("netsim: the %d failed chips cover every node", spec.Count)
		}
	case fault.Adversarial:
		return nil, nil, fmt.Errorf("netsim: adversarial faults target graph cuts; use the degraded metrics endpoint, not the packet simulator")
	default:
		return nil, nil, fmt.Errorf("fault: unknown mode %q", mode)
	}
	return &d, sum, nil
}

// undirectedLinks lists the distinct undirected links of net in canonical
// u < v order, deduplicating parallel ports.
func undirectedLinks(net *Network) [][2]int32 {
	var pairs [][2]int32
	seen := make(map[int64]bool)
	for u := 0; u < net.N; u++ {
		for _, v := range net.Ports.PortRow(u) {
			if int(v) <= u {
				continue
			}
			key := int64(u)<<32 | int64(v)
			if seen[key] {
				continue
			}
			seen[key] = true
			//lint:ignore indextrunc u < net.N, which Validate callers bound via checkNodeCount
			pairs = append(pairs, [2]int32{int32(u), v})
		}
	}
	return pairs
}

// killPorts marks every port of u targeting v dead (parallel ports all die
// with the physical link).
func killPorts(net *Network, u, v int) {
	for p, w := range net.Ports.PortRow(u) {
		if int(w) == v {
			net.DeadPort[u][p] = true
		}
	}
}

// resolveFaulty picks the forwarding port for a packet at node v on a
// faulty network.  A routing decision that lands on a dead port is
// diverted to a uniformly random alive port (a misroute retry); -1 means
// the packet has no alive way forward and must be dropped.  The per-node
// PRNG keeps the diversion race-free: v is always in the calling shard.
func (s *Sim) resolveFaulty(v int, dst int32) int {
	net := s.Net
	p := s.routePort(v, dst)
	if _, ok := s.portArc(v, p); ok && !net.portDead(v, p) {
		return p
	}
	if p < 0 {
		// A fault-aware router returns -1 exactly when dst is unreachable
		// over alive links; there is nothing to retry.
		return -1
	}
	alive := 0
	np := net.Ports.Arity(v)
	for q := 0; q < np; q++ {
		if net.Ports.Port(v, q) >= 0 && !net.portDead(v, q) {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	k := s.rngs[v].intn(alive)
	for q := 0; q < np; q++ {
		if net.Ports.Port(v, q) >= 0 && !net.portDead(v, q) {
			if k == 0 {
				s.perNode[v].retried++
				return q
			}
			k--
		}
	}
	return -1 // unreachable
}

// FaultAwareRouter routes minimally over the alive links of a degraded
// network: a per-destination distance table built by BFS that skips
// dead ports and dead nodes.  It implements AdaptiveRouter — among
// the alive minimal ports it picks the shortest local queue (ties to the
// lowest port, keeping runs deterministic) — and returns -1 only when the
// destination is unreachable, so it never misroutes and a simulation under
// it delivers every packet whose destination survives in the same
// component.
type FaultAwareRouter struct {
	net *Network
	n   int
	// dist[dst*n+u] is u's distance to dst over alive links, -1 =
	// unreachable: destination-major, so each MSBFS pass fills 64
	// contiguous rows and a routing decision reads one row.
	dist []int16
}

// NewFaultAwareRouter builds the distance table (O(N^2) memory, O(N*E)
// time) with the routing core: MSBFS passes over the alive arcs, each
// writing 64 destinations' rows straight into the table.  Unreachable
// pairs are not an error: that is precisely what a degraded network looks
// like.  An alive arc without an alive reverse is.
func NewFaultAwareRouter(net *Network) (*FaultAwareRouter, error) {
	n := net.N
	if err := checkTableSize(n, "FaultAwareRouter"); err != nil {
		return nil, err
	}
	c, err := aliveCSR(net)
	if err != nil {
		return nil, err
	}
	r := &FaultAwareRouter{net: net, n: n, dist: make([]int16, n*n)}
	err = perBatch(n, n, func() func(int, int, *topo.MSBFSScratch) error {
		var ids [destBatch]int32
		return func(lo, hi int, ms *topo.MSBFSScratch) error {
			distanceRows(net, c, idRange(&ids, lo, hi), r.dist[lo*n:hi*n], ms)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// NextPort implements Router: the lowest alive port on a shortest alive
// path, or -1 when dst is unreachable.
func (r *FaultAwareRouter) NextPort(cur, dst int) int {
	return minimalPort(r.net, r.dist[dst*r.n:(dst+1)*r.n], cur)
}

// NextPortAdaptive implements AdaptiveRouter: among the alive minimal
// ports, the one with the shortest local output queue (ties to the lowest
// port).
func (r *FaultAwareRouter) NextPortAdaptive(cur, dst int, qlen []int32) int {
	row := r.dist[dst*r.n : (dst+1)*r.n]
	d := row[cur]
	if d <= 0 {
		return -1
	}
	best, bestLen := -1, int32(0)
	for p, v := range r.net.Ports.PortRow(cur) {
		if v < 0 || r.net.portDead(cur, p) || row[v] != d-1 {
			continue
		}
		if l := qlen[p]; best < 0 || l < bestLen {
			best, bestLen = p, l
		}
	}
	return best
}
