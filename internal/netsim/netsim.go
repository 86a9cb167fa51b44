// Package netsim is a synchronous, packet-level interconnection-network
// simulator used to reproduce the paper's communication experiments:
// random uniform routing, total exchange, and permutation traffic under
// the unit link / unit chip capacity models.
//
// Model: store-and-forward, one routing decision per packet per node,
// per-directed-link FIFO queues, and per-link capacities in packets per
// round.  Fractional capacities (e.g. the 8w/15 off-chip links of an
// HSN(3,Q4) chip) accumulate as credits.  On-chip links are modelled as
// effectively infinite, following the paper's assumption that "on-chip
// links can be made fast enough so that they do not form a performance
// bottleneck".
//
// The simulator advances in two phases per round, each parallelized over
// node shards with a barrier in between: phase A pops up to capacity
// packets from every node's output queues; phase B routes arrivals and
// injections into the destination nodes' queues.  Queue ownership moves
// from the source shard (phase A) to the target shard (phase B), so the
// phases are data-race free; results are deterministic for a fixed seed
// and worker-independent.
//
// State layout: every per-link quantity (queue, waiting count, token
// credit, the batch in transit) is one flat slice indexed by arc, and a
// count-then-fill reverse-arc index lists each node's incoming arcs, so
// New is O(arcs) with a fixed number of allocations.  Each node draws its
// traffic and fault diverts from its own splitmix64 stream, seeded in O(1)
// by hashing (seed, node).  Every all-pairs router table is built by one
// routing-table core (tables.go): a reverse BFS fills each destination's row.
//
// Unlike the metric kernels in internal/topo and internal/graph, the
// simulator is not generic over topo.Source: a simulation's per-node
// queue and credit state is O(N) whatever the adjacency representation,
// and routers address *ports*, not neighbors, so the port banks are the
// simulated resource.  Implicit (codec-backed) topologies enter through
// topo.FromSource, which materializes their port map in the same
// canonical order as the CSR path — the simulator itself then runs
// identically on either origin.
package netsim

//lint:file-ignore indextrunc node ids are < net.N (checkNodeCount), arc ids are < arcOff[N] (the port map bounds arcs to math.MaxUint32), ports are < Arity(u), and a transmitted batch is at most its queue's int32 length
//lint:file-ignore ctxflow simulator setup and per-round sweeps are O(N) on networks capped by SimMaxNodes (enforced in serve) and checkNodeCount; the exported ...Ctx runners poll ctx once per round

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ipg/internal/topo"
)

// OnChipCapacity is the per-round packet capacity assigned to on-chip
// links.
const OnChipCapacity = math.MaxFloat64

// Router decides the outgoing port for a packet.
type Router interface {
	// NextPort returns the port index at cur on which to forward a packet
	// destined for dst (cur != dst).
	NextPort(cur, dst int) int
}

// Network is the static description of a simulated network.
type Network struct {
	Name string
	N    int
	// Ports is the port-labelled topology: Ports.Port(u, p) is the neighbor
	// reached from u via port p, or -1 if the port is absent at u (e.g. an
	// IPG generator that fixes u's label), and Ports.Cap(u, p) is the
	// capacity of the directed link at (u, p) in packets per round.
	Ports *topo.PortMap
	// ClusterOf assigns nodes to chips for off-chip accounting; nil means
	// every node is its own chip.
	ClusterOf []int32
	Router    Router
	// SinglePort restricts each node to transmitting on at most one
	// outgoing link per round (the single-port model of Section 3, of
	// which SDC is a special case); the default is all-port.
	SinglePort bool

	// Fault state, normally installed by Degrade.  DeadNode[u] marks a
	// failed node: it neither injects, forwards, nor receives.  DeadPort[u][p]
	// marks the directed link at (u, p) failed; Degrade kills both
	// directions of an edge together.  Nil slices mean fully healthy, and
	// the simulator's fault branches are skipped entirely.
	DeadNode []bool
	DeadPort [][]bool
	// PacketTTL bounds the hops a packet may take on a faulty network
	// before it is dropped (misrouting around faults can cycle); 0 means
	// the default of 4*N+64.  Ignored on healthy networks.
	PacketTTL int32
}

// Faulty reports whether the network carries any fault state.
func (n *Network) Faulty() bool { return n.DeadNode != nil || n.DeadPort != nil }

// nodeDead reports whether node u failed.
func (n *Network) nodeDead(u int) bool { return n.DeadNode != nil && n.DeadNode[u] }

// portDead reports whether the directed link at (u, p) failed (a link into
// a dead node counts as dead, so transmissions never target dead nodes).
func (n *Network) portDead(u, p int) bool {
	if n.DeadPort != nil && n.DeadPort[u][p] {
		return true
	}
	if n.DeadNode != nil {
		if v := n.Ports.Port(u, p); v >= 0 && n.DeadNode[v] {
			return true
		}
	}
	return false
}

// Validate checks structural consistency.
func (n *Network) Validate() error {
	if n.Ports == nil || n.Ports.N() != n.N {
		return fmt.Errorf("netsim: %s: port map node count mismatch", n.Name)
	}
	for u := 0; u < n.N; u++ {
		for p, v := range n.Ports.PortRow(u) {
			if v >= 0 && (int(v) >= n.N || n.Ports.Cap(u, p) <= 0) {
				return fmt.Errorf("netsim: %s: node %d port %d invalid", n.Name, u, p)
			}
		}
	}
	if n.ClusterOf != nil && len(n.ClusterOf) != n.N {
		return fmt.Errorf("netsim: %s: clusterOf length mismatch", n.Name)
	}
	if n.Router == nil {
		return fmt.Errorf("netsim: %s: no router", n.Name)
	}
	if n.DeadNode != nil && len(n.DeadNode) != n.N {
		return fmt.Errorf("netsim: %s: deadNode length mismatch", n.Name)
	}
	if n.DeadPort != nil {
		if len(n.DeadPort) != n.N {
			return fmt.Errorf("netsim: %s: deadPort length mismatch", n.Name)
		}
		for u := 0; u < n.N; u++ {
			if len(n.DeadPort[u]) != n.Ports.Arity(u) {
				return fmt.Errorf("netsim: %s: deadPort arity mismatch at node %d", n.Name, u)
			}
		}
	}
	if n.PacketTTL < 0 {
		return fmt.Errorf("netsim: %s: negative packet TTL", n.Name)
	}
	return nil
}

// offChip reports whether the directed link u->v crosses chips.
func (n *Network) offChip(u, v int32) bool {
	return n.ClusterOf != nil && n.ClusterOf[u] != n.ClusterOf[v]
}

// Packet is a unicast payload descriptor.
type Packet struct {
	Dst  int32
	Born int32 // round of injection
	// TTL is the remaining hop budget on a faulty network (misrouting
	// around faults can cycle); unused — and never decremented — on
	// healthy networks.
	TTL int32
}

// Stats aggregates simulation measurements.  On a faulty network every
// injected packet is eventually accounted exactly once:
// Injected = Delivered + Dropped + InFlight.
type Stats struct {
	Rounds       int
	Injected     int64
	Delivered    int64
	Dropped      int64 // lost to faults: no alive route, or TTL exhausted
	Retried      int64 // misroute retries: routing decisions diverted off a dead port
	TotalLatency int64 // sum over delivered packets of (arrival - born)
	Hops         int64 // total link transmissions
	OffChipHops  int64 // transmissions crossing chips
	InFlight     int64 // packets still queued when the run ended
}

// AvgLatency returns mean delivery latency in rounds.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}

// OffChipPerPacket returns mean off-chip transmissions per delivered
// packet.
func (s Stats) OffChipPerPacket() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.OffChipHops) / float64(s.Delivered)
}

// HopsPerPacket returns mean total transmissions per delivered packet.
func (s Stats) HopsPerPacket() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Delivered)
}

// Sim is a running simulation instance.  Its per-link state is
// arc-indexed: arc arcOff[u]+p is the directed link at port p of u, and
// every per-link quantity is one flat slice over the arcs.
type Sim struct {
	Net *Network

	arcOff []uint32 // u's arcs are [arcOff[u], arcOff[u+1])
	// queues[a] is arc a's FIFO; its waiting packets are the last qlen[a]
	// elements, the prefix before them was transmitted in earlier rounds.
	queues [][]Packet
	// qlen[a] counts the packets waiting on arc a; u's row
	// qlen[arcOff[u]:arcOff[u+1]] is what adaptive routers see.
	qlen    []int32
	credits []float64 // token-bucket credit per arc
	// sent[a] is the batch phase A transmitted on arc a this round: a view
	// of queues[a]'s backing array, read and cleared in phase B by the
	// arc's head node.  Phase B only appends past it, and the transmitted
	// prefix is reclaimed in a later phase A, so the view stays intact.
	sent [][]Packet

	// Reverse-arc index, built count-then-fill: the arcs arriving at v
	// are in[inOff[v]:inOff[v+1]], ordered by (source, port) ascending.
	inOff []uint32
	in    []inArc

	// adaptive is Net.Router's AdaptiveRouter view, or nil; resolved once
	// so routing decisions do no interface assertion.
	adaptive AdaptiveRouter

	round   int32
	stats   Stats
	workers int

	// Persistent parallelism state: the node ranges are fixed at New, and
	// the per-range worker closures plus the two phase closures are
	// created once, so Step allocates nothing for its fan-out.  curPhase
	// is written between phases (single-threaded points) and only read by
	// the workers.
	ranges    [][2]int
	workerFns []func()
	phaseAFn  func(lo, hi int)
	phaseBFn  func(lo, hi int)
	curPhase  func(lo, hi int)
	wg        sync.WaitGroup

	// Livelock detection: with fractional link capacities, rounds where
	// nothing moves are legitimate while credits accumulate; only a streak
	// longer than the slowest link's refill period indicates a stuck
	// simulation.
	zeroStreak int
	maxIdle    int

	// rrPort is the per-node round-robin pointer for single-port mode.
	rrPort []int

	// faulty caches Net.Faulty(); every fault branch below is skipped when
	// false, so healthy simulations run the exact pre-fault code path.
	faulty bool
	// ttl0 is the initial TTL stamped on packets of a faulty network.
	ttl0 int32

	// injectFn, if set, is called in phase B for each node to produce new
	// packets this round via Emit.
	injectFn func(u int, round int32)

	perNode []localStats
	rngs    []stream
	// hist holds per-node delivery-latency histograms of histW buckets
	// each (index = rounds, last bucket = overflow); nil unless
	// EnableLatencyHistogram was called.  Node v owns row v, so updates
	// are race-free under the phase-B sharding.
	hist  []int64
	histW int
}

// queueSeed is the per-arc queue capacity New carves from one arena.
const queueSeed = 2

// inArc is one entry of the reverse-arc index: the arc, and whether it
// crosses chips.
type inArc struct {
	arc     uint32
	offChip bool
}

// localStats is one node's counters: eight int64s, a 64-byte cache line,
// so neighbouring shards do not falsely share them.
type localStats struct {
	delivered, latency, hops, offchip, injected, dropped, retried int64
	moved                                                         int64 // packets received this round
}

// checkNodeCount validates that a node count fits the int32 node-id /
// int16 port-id representation used throughout the simulator, so oversized
// caller-built networks fail loudly instead of wrapping ids.
func checkNodeCount(n int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("netsim: node count %d outside [0, %d]", n, math.MaxInt32)
	}
	return nil
}

// New creates a simulation for the network with the given PRNG seed.  Its
// set-up is O(arcs) with a fixed number of allocations: every per-node
// and per-arc table is one flat slice.
func New(net *Network, seed int64) (*Sim, error) {
	if err := checkNodeCount(net.N); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	n := net.N
	s := &Sim{
		Net:     net,
		workers: runtime.GOMAXPROCS(0),
		faulty:  net.Faulty(),
	}
	s.adaptive, _ = net.Router.(AdaptiveRouter)
	if s.faulty {
		s.ttl0 = net.PacketTTL
		if s.ttl0 == 0 {
			if ttl := 4*int64(n) + 64; ttl <= math.MaxInt32 {
				s.ttl0 = int32(ttl)
			} else {
				s.ttl0 = math.MaxInt32
			}
		}
	}
	s.workers = max(1, min(s.workers, n))
	s.arcOff = make([]uint32, n+1)
	for u := 0; u < n; u++ {
		s.arcOff[u+1] = s.arcOff[u] + uint32(net.Ports.Arity(u))
	}
	arcs := s.arcOff[n]
	s.queues = make([][]Packet, arcs)
	// Every queue starts as a queueSeed-packet window of one shared arena;
	// only a queue that outgrows it reallocates.
	arena := make([]Packet, int(arcs)*queueSeed)
	for a := range s.queues {
		s.queues[a] = arena[a*queueSeed : a*queueSeed : (a+1)*queueSeed]
	}
	s.qlen = make([]int32, arcs)
	s.credits = make([]float64, arcs)
	s.sent = make([][]Packet, arcs)
	s.perNode = make([]localStats, n)
	s.rngs = make([]stream, n)
	for u := range s.rngs {
		s.rngs[u] = newStream(seed, u)
	}

	// Reverse-arc index: count arrivals per head node into inOff[v+1],
	// prefix-sum, fill using inOff[v] as v's cursor, then shift the
	// advanced cursors back into offsets.
	s.inOff = make([]uint32, n+1)
	minCap := math.Inf(1)
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 {
				s.inOff[v+1]++
				minCap = min(minCap, net.Ports.Cap(u, p))
			}
		}
	}
	for v := 0; v < n; v++ {
		s.inOff[v+1] += s.inOff[v]
	}
	s.in = make([]inArc, s.inOff[n])
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 {
				s.in[s.inOff[v]] = inArc{arc: s.arcOff[u] + uint32(p), offChip: net.offChip(int32(u), v)}
				s.inOff[v]++
			}
		}
	}
	copy(s.inOff[1:], s.inOff[:n])
	s.inOff[0] = 0

	s.maxIdle = 2
	if minCap < 1 {
		s.maxIdle = int(math.Ceil(1/minCap)) + 2
	}
	if net.SinglePort {
		s.rrPort = make([]int, n)
	}
	chunk := (n + s.workers - 1) / s.workers
	s.ranges = make([][2]int, 0, s.workers)
	for lo := 0; lo < n; lo += chunk {
		s.ranges = append(s.ranges, [2]int{lo, min(lo+chunk, n)})
	}
	s.workerFns = make([]func(), len(s.ranges))
	for i, r := range s.ranges {
		lo, hi := r[0], r[1]
		s.workerFns[i] = func() {
			defer s.wg.Done()
			s.curPhase(lo, hi)
		}
	}
	s.phaseAFn = s.phaseA
	s.phaseBFn = s.phaseB
	return s, nil
}

// SetInjector installs the per-round traffic source: fn(u, round) runs in
// phase B for every node u and injects its packets with Emit.
func (s *Sim) SetInjector(fn func(u int, round int32)) { s.injectFn = fn }

// push appends pkt to the queue of port p at node v.
func (s *Sim) push(v, p int, pkt Packet) {
	a := s.arcOff[v] + uint32(p)
	s.queues[a] = append(s.queues[a], pkt)
	s.qlen[a]++
}

// Emit injects one packet at node u, destined for dst, in the round being
// stepped (the packet is born in round s.round+1, matching arrival
// accounting).  It may only be called from the injector's call for u,
// which runs in u's phase-B shard; a packet to u itself is ignored.
func (s *Sim) Emit(u int, dst int32) {
	if int(dst) == u {
		return
	}
	if !s.faulty {
		s.push(u, s.routePort(u, dst), Packet{Dst: dst, Born: s.round + 1})
		s.perNode[u].injected++
		return
	}
	s.perNode[u].injected++
	if s.Net.nodeDead(u) {
		// A dead source cannot inject; like Enqueue, count the packet as
		// injected-then-dropped so batch workloads with a fixed intended
		// total (e.g. total exchange) still drain to conservation.
		s.perNode[u].dropped++
		return
	}
	p := s.resolveFaulty(u, dst)
	if p < 0 {
		s.perNode[u].dropped++ // no alive route out of u
		return
	}
	s.push(u, p, Packet{Dst: dst, Born: s.round + 1, TTL: s.ttl0})
}

// EnableLatencyHistogram starts recording per-packet delivery latencies in
// buckets 0..maxLatency (larger values land in the overflow bucket).
func (s *Sim) EnableLatencyHistogram(maxLatency int) {
	s.histW = maxLatency + 2
	s.hist = make([]int64, s.Net.N*s.histW)
}

// LatencyPercentiles merges the per-node histograms and returns the
// requested percentiles (each in [0,1]) of the delivered-packet latency.
func (s *Sim) LatencyPercentiles(percentiles []float64) ([]int, error) {
	if s.hist == nil {
		return nil, fmt.Errorf("netsim: latency histogram not enabled")
	}
	merged := make([]int64, s.histW)
	var total int64
	for i, c := range s.hist {
		merged[i%s.histW] += c
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("netsim: no deliveries recorded")
	}
	out := make([]int, len(percentiles))
	for i, p := range percentiles {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("netsim: percentile %v out of [0,1]", p)
		}
		target := int64(p * float64(total-1))
		var cum int64
		for b, c := range merged {
			cum += c
			if cum > target {
				out[i] = b
				break
			}
		}
	}
	return out, nil
}

// Enqueue injects a packet at node u immediately (before the next round).
// On a faulty network a packet injected at a dead node, or with no alive
// route, is accounted as injected-then-dropped so conservation holds.
func (s *Sim) Enqueue(u int, dst int32) error {
	if int(dst) == u {
		return fmt.Errorf("netsim: packet to self at node %d", u)
	}
	if s.faulty {
		s.perNode[u].injected++
		if s.Net.nodeDead(u) {
			s.perNode[u].dropped++
			return nil
		}
		p := s.resolveFaulty(u, dst)
		if p < 0 {
			s.perNode[u].dropped++
			return nil
		}
		s.push(u, p, Packet{Dst: dst, Born: s.round, TTL: s.ttl0})
		return nil
	}
	p := s.routePort(u, dst)
	if p < 0 || p >= s.Net.Ports.Arity(u) || s.Net.Ports.Port(u, p) < 0 {
		return fmt.Errorf("netsim: router returned invalid port %d at node %d for dst %d", p, u, dst)
	}
	s.push(u, p, Packet{Dst: dst, Born: s.round})
	s.perNode[u].injected++
	return nil
}

// parallelNodes runs fn over the fixed node ranges on the worker pool.
// The worker closures are the persistent ones built in New; the spawned
// goroutines are joined by wg.Wait before return.
func (s *Sim) parallelNodes(fn func(lo, hi int)) {
	if len(s.ranges) <= 1 {
		fn(0, s.Net.N)
		return
	}
	s.curPhase = fn
	s.wg.Add(len(s.workerFns))
	for _, w := range s.workerFns {
		go w()
	}
	s.wg.Wait()
}

// backlog returns arc a's queue with the already-transmitted prefix
// reclaimed once it is at least as long as the waiting packets, so each
// packet is copied O(1) times amortized.  Only phase A calls it: by then
// every view handed out by the previous phase A has been consumed.
func (s *Sim) backlog(a uint32) []Packet {
	q := s.queues[a]
	if head := len(q) - int(s.qlen[a]); head > 0 && head >= int(s.qlen[a]) {
		q = q[:copy(q, q[head:])]
		s.queues[a] = q
	}
	return q
}

// transmit hands the first take waiting packets of arc a to phase B.
func (s *Sim) transmit(a uint32, q []Packet, take int) {
	head := len(q) - int(s.qlen[a])
	s.sent[a] = q[head : head+take : head+take]
	s.qlen[a] -= int32(take)
}

// phaseA transmits up to capacity from each output queue of the nodes in
// [lo, hi).
func (s *Sim) phaseA(lo, hi int) {
	net := s.Net
	for u := lo; u < hi; u++ {
		if s.faulty && net.nodeDead(u) {
			continue // dead nodes transmit nothing (their queues stay empty)
		}
		if net.SinglePort {
			s.singlePortPhaseA(u)
			continue
		}
		base := s.arcOff[u]
		for p, cap := range net.Ports.CapRow(u) {
			a := base + uint32(p)
			q := s.backlog(a)
			avail := int(s.qlen[a])
			if avail == 0 {
				continue
			}
			take := avail
			if cap < float64(avail) {
				// Token bucket: credits accumulate across idle rounds
				// up to one round's worth plus one packet.
				c := min(s.credits[a]+cap, cap+1)
				take = min(int(c), avail)
				s.credits[a] = c - float64(take)
			}
			if take > 0 {
				s.transmit(a, q, take)
			}
		}
	}
}

// phaseB routes arrivals and injections into destination nodes [lo, hi).
// s.round is stable for the whole phase (incremented only after the join
// in Step), so reading it here is race-free.
func (s *Sim) phaseB(lo, hi int) {
	net := s.Net
	round := s.round
	for v := lo; v < hi; v++ {
		if s.faulty && net.nodeDead(v) {
			// Dead nodes receive and forward nothing, but their injector
			// still runs: Emit accounts each intended packet as
			// injected-then-dropped so batch workloads drain to conservation.
			if s.injectFn != nil {
				s.injectFn(v, round+1)
			}
			continue
		}
		ls := &s.perNode[v]
		var hist []int64
		if s.hist != nil {
			hist = s.hist[v*s.histW : (v+1)*s.histW]
		}
		var moved int64
		for _, in := range s.in[s.inOff[v]:s.inOff[v+1]] {
			box := s.sent[in.arc]
			if len(box) == 0 {
				continue
			}
			s.sent[in.arc] = nil
			moved += int64(len(box))
			if in.offChip {
				ls.offchip += int64(len(box))
			}
			for _, pkt := range box {
				if int(pkt.Dst) == v {
					ls.delivered++
					lat := int64(round + 1 - pkt.Born)
					ls.latency += lat
					if hist != nil {
						hist[min(int(lat), len(hist)-1)]++
					}
					continue
				}
				if s.faulty {
					// Each forwarding hop costs one TTL unit; a packet that
					// runs out (or has no alive route) is dropped, keeping
					// injected = delivered + dropped + in-flight exact.
					pkt.TTL--
					if pkt.TTL <= 0 {
						ls.dropped++
						continue
					}
					p := s.resolveFaulty(v, pkt.Dst)
					if p < 0 {
						ls.dropped++
						continue
					}
					s.push(v, p, pkt)
					continue
				}
				s.push(v, s.routePort(v, pkt.Dst), pkt)
			}
		}
		ls.hops += moved
		ls.moved = moved
		if s.injectFn != nil {
			s.injectFn(v, round+1)
		}
	}
}

// Step advances the simulation one round.  It returns the number of
// packets that moved or were injected (0 with packets in flight indicates
// livelock, reported as an error).
func (s *Sim) Step() (int, error) {
	// Phase A: pop up to capacity from each output queue.
	s.parallelNodes(s.phaseAFn)
	// Phase B: arrivals and injections, sharded by destination node.
	s.parallelNodes(s.phaseBFn)
	s.round++
	s.stats.Rounds++
	moved := 0
	for i := range s.perNode {
		moved += int(s.perNode[i].moved)
		s.perNode[i].moved = 0
	}
	if moved == 0 && s.injectFn == nil && s.InFlight() > 0 {
		s.zeroStreak++
		if s.zeroStreak > s.maxIdle {
			return 0, fmt.Errorf("netsim: %s: livelock with %d packets in flight", s.Net.Name, s.InFlight())
		}
	} else {
		s.zeroStreak = 0
	}
	return moved, nil
}

// singlePortPhaseA transmits at most one packet at node u, on the next
// nonempty port in round-robin order (credits still gate slow links).
func (s *Sim) singlePortPhaseA(u int) {
	caps := s.Net.Ports.CapRow(u)
	np := len(caps)
	start := s.rrPort[u]
	for off := 0; off < np; off++ {
		p := (start + off) % np
		a := s.arcOff[u] + uint32(p)
		if s.qlen[a] == 0 {
			continue
		}
		if cap := caps[p]; cap < 1 {
			s.credits[a] = min(s.credits[a]+cap, cap+1)
			if s.credits[a] < 1 {
				continue // link not ready; try another port
			}
			s.credits[a]--
		}
		s.transmit(a, s.backlog(a), 1)
		s.rrPort[u] = (p + 1) % np
		return
	}
}

// InFlight returns the number of queued packets.
func (s *Sim) InFlight() int64 {
	var total int64
	for _, l := range s.qlen {
		total += int64(l)
	}
	return total
}

// Stats reduces the per-node counters into the aggregate view.
func (s *Sim) Stats() Stats {
	out := s.stats
	for i := range s.perNode {
		ls := &s.perNode[i]
		out.Delivered += ls.delivered
		out.TotalLatency += ls.latency
		out.Hops += ls.hops
		out.OffChipHops += ls.offchip
		out.Injected += ls.injected
		out.Dropped += ls.dropped
		out.Retried += ls.retried
	}
	out.InFlight = s.InFlight()
	return out
}

// ResetStats zeroes the measurement counters (e.g. after warmup) without
// touching queue state.
func (s *Sim) ResetStats() {
	s.stats = Stats{}
	clear(s.perNode)
	clear(s.hist)
}
