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
// node shards with a barrier in between.  Phase A pops up to capacity
// packets from every busy output queue of the shard's nodes into one
// flight list per destination shard; phase B drains the lists addressed
// to its shard in source-shard order, routing each arrival into its head
// node's queues, then runs its nodes' injectors.  A queue is only touched
// by the shard owning its tail node, and a flight list is written by its
// source shard in phase A and read by its destination shard in phase B,
// so the phases are data-race free.  Every node sees its arrivals in
// ascending arc id and then its injector, and nodes do not interact
// within phase B, so results are deterministic for a fixed seed and
// worker-independent.
//
// State layout: every per-link quantity (queue ring, waiting count, token
// credit) is one flat slice indexed by the port map's own arc ids.
// Each queue is a power-of-two ring carved from one arena and doubled when
// full, so nothing is compacted, and New is O(arcs) with a fixed number of
// allocations.  A round costs work in proportion to the packets that move,
// plus one injector call per node: each shard keeps a bitmap of its busy
// arcs, which a push onto an empty queue sets and phase A clears once it
// empties the queue, and phase A walks only those bits.  Each node draws
// its traffic and fault diverts from its own splitmix64 stream, seeded in
// O(1) by hashing (seed, node).  Every all-pairs router table is built by
// one routing-table core (tables.go): MSBFS fills 64 destinations'
// distance rows per pass, and the routers pick the lowest alive port onto
// a shortest path.  On a healthy super-IPG over a vertex-transitive
// nucleus the TableRouter keeps the rows of one destination per cluster.
// Super-IPG node ids are addresses (internal/superipg's digit rule), so
// HSNRouter reads each node's digits and those destinations are the
// multiples of the nucleus size.
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
	"math/bits"
	"runtime"
	"slices"
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

	// orbit, set by BuildSuperIPG whatever router it is given, lets
	// NewTableRouter keep one row per cluster.  It describes Ports as
	// built, and a network carrying fault state ignores it.
	orbit *orbitMaps
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

	// The port map's flat banks: arc a's head node is ports[a] (-1 for an
	// absent port) and its capacity caps[a]; u's arcs are
	// [arcOff[u], arcOff[u+1]).
	arcOff []uint32
	ports  []int32
	caps   []float64
	// rings[a] is arc a's FIFO: its qlen[a] waiting packets start at
	// rings[a].buf[rings[a].head] and wrap.
	rings []ring
	// qlen[a] counts the packets waiting on arc a; u's row
	// qlen[arcOff[u]:arcOff[u+1]] is what adaptive routers see.
	qlen    []int32
	credits []float64 // token-bucket credit per arc
	// offChip has bit a set when arc a crosses chips.
	offChip []uint64

	// shards partition the nodes into the fixed ranges the workers own;
	// shard k holds nodes [k*chunk, (k+1)*chunk).
	shards []shard
	chunk  int

	// adaptive is Net.Router's AdaptiveRouter view, or nil; resolved once
	// so routing decisions do no interface assertion.
	adaptive AdaptiveRouter

	round int32
	stats Stats

	// Persistent parallelism state: the per-shard worker closures plus the
	// two phase closures are created once, so Step allocates nothing for
	// its fan-out.  curPhase is written between phases (single-threaded
	// points) and only read by the workers.
	workerFns []func()
	phaseAFn  func(k int)
	phaseBFn  func(k int)
	curPhase  func(k int)
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

// ring is a FIFO over a buffer whose length is a power of two; its
// packets start at buf[head] and wrap.  A push onto a full ring doubles it.
type ring struct {
	buf  []Packet
	head uint32
}

// queueSeed is the per-arc ring capacity New carves from one arena; a
// power of two, like every capacity a ring doubles to.
const queueSeed = 2

// shard is one worker's share of a round: its nodes, the busy bits of
// their arcs, the packets its phase A put in flight, and its counters.
// Only its own worker writes it, except that phase B of shard t empties
// out[t] of every shard.
type shard struct {
	lo, hi int    // nodes [lo, hi)
	arcLo  uint32 // arcOff[lo]: bit i of busy is arc arcLo+i
	// busy has a bit set for every arc of the shard holding a packet.
	busy []uint64
	// out[t] lists the packets phase A transmitted this round toward shard
	// t's nodes, in ascending arc order, FIFO within an arc.
	out [][]flight
	// moved counts this round's transmissions; hops and offchip accumulate
	// them (and their chip-crossing share) until ResetStats.
	moved, hops, offchip int64
	// bad is the invalid port the router returned at the lowest node of
	// the shard (that node's first), reported by Step; bad.node < 0: none.
	bad badPort
	_   [64]byte // keep neighbouring shards' counters off one cache line
}

// rowGap is how many unused slice headers (24 bytes each) separate two
// shards' flight-list rows: enough to span a 64-byte cache line.
const rowGap = 3

// flight is a packet in transit to node to.
type flight struct {
	to int32
	Packet
}

// badPort records a routing decision naming a port the node lacks.
type badPort struct {
	node int
	dst  int32
	port int
}

// localStats is one node's counters, written by the node's phase-B shard.
type localStats struct {
	delivered, latency, injected, dropped, retried int64
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
	s := &Sim{Net: net, faulty: net.Faulty()}
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
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	s.arcOff, s.ports, s.caps = net.Ports.Banks()
	arcs := len(s.ports)
	s.rings = make([]ring, arcs)
	// Every ring starts as a queueSeed-packet window of one shared arena;
	// only a ring that outgrows it reallocates.
	arena := make([]Packet, arcs*queueSeed)
	for a := range s.rings {
		s.rings[a].buf = arena[a*queueSeed : (a+1)*queueSeed : (a+1)*queueSeed]
	}
	s.qlen = make([]int32, arcs)
	s.credits = make([]float64, arcs)
	s.offChip = make([]uint64, (arcs+63)/64)
	s.perNode = make([]localStats, n)
	s.rngs = make([]stream, n)
	for u := range s.rngs {
		s.rngs[u] = newStream(seed, u)
	}

	minCap := math.Inf(1)
	for u := 0; u < n; u++ {
		for a := s.arcOff[u]; a < s.arcOff[u+1]; a++ {
			if v := s.ports[a]; v >= 0 {
				minCap = min(minCap, s.caps[a])
				if net.offChip(int32(u), v) {
					s.offChip[a/64] |= 1 << (a % 64)
				}
			}
		}
	}
	s.maxIdle = 2
	if minCap < 1 {
		s.maxIdle = int(math.Ceil(1/minCap)) + 2
	}
	if net.SinglePort {
		s.rrPort = make([]int, n)
	}

	// Shards: fixed node ranges, each with a word-aligned window of one
	// busy-bit arena (so no two shards share a word) and a row of one
	// flight-list table.  Phase A rewrites its row's headers on every
	// transmission, so rows are spaced a cache line apart.
	s.chunk = max(1, (n+workers-1)/workers)
	nsh := (n + s.chunk - 1) / s.chunk
	s.shards = make([]shard, nsh)
	words := 0
	for k := range s.shards {
		sh := &s.shards[k]
		sh.lo, sh.hi = k*s.chunk, min((k+1)*s.chunk, n)
		sh.arcLo = s.arcOff[sh.lo]
		words += int(s.arcOff[sh.hi]-sh.arcLo+63) / 64
	}
	busy := make([]uint64, words)
	stride := nsh + rowGap
	outs := make([][]flight, nsh*stride)
	for k := range s.shards {
		sh := &s.shards[k]
		w := int(s.arcOff[sh.hi]-sh.arcLo+63) / 64
		sh.busy, busy = busy[:w:w], busy[w:]
		sh.out = outs[k*stride : k*stride+nsh : k*stride+nsh]
		sh.bad.node = -1
	}
	s.workerFns = make([]func(), nsh)
	for k := range s.workerFns {
		s.workerFns[k] = func() {
			defer s.wg.Done()
			s.curPhase(k)
		}
	}
	s.phaseAFn = s.phaseA
	s.phaseBFn = s.phaseB
	return s, nil
}

// SetInjector installs the per-round traffic source: fn(u, round) runs in
// phase B for every node u and injects its packets with Emit.
func (s *Sim) SetInjector(fn func(u int, round int32)) { s.injectFn = fn }

// shardOf returns the shard owning node u.
func (s *Sim) shardOf(u int) *shard { return &s.shards[u/s.chunk] }

// portArc returns the arc of port p at node v, and whether v has that
// port.
func (s *Sim) portArc(v, p int) (uint32, bool) {
	lo := s.arcOff[v]
	a := lo + uint32(p)
	return a, uint(p) < uint(s.arcOff[v+1]-lo) && s.ports[a] >= 0
}

// push appends pkt to arc a's ring, marking the arc busy in its shard sh
// when its queue was empty.
func (s *Sim) push(sh *shard, a uint32, pkt Packet) {
	r := &s.rings[a]
	n := s.qlen[a]
	if int(n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+uint32(n))&uint32(len(r.buf)-1)] = pkt
	s.qlen[a] = n + 1
	if n == 0 {
		i := a - sh.arcLo
		sh.busy[i/64] |= 1 << (i % 64)
	}
}

// grow doubles the full ring r, unwrapping its packets to the front.
func (r *ring) grow() {
	g := make([]Packet, 2*len(r.buf))
	copy(g[copy(g, r.buf[r.head:]):], r.buf[:r.head])
	r.buf, r.head = g, 0
}

// forward queues pkt at healthy node v on the port the router picks.  A
// port v does not have is not pushed: it is recorded on v's shard sh, and
// Step reports it.
func (s *Sim) forward(sh *shard, v int, pkt Packet) {
	p := s.routePort(v, pkt.Dst)
	a, ok := s.portArc(v, p)
	if !ok {
		if sh.bad.node < 0 || v < sh.bad.node {
			sh.bad = badPort{node: v, dst: pkt.Dst, port: p}
		}
		return
	}
	s.push(sh, a, pkt)
}

// Emit injects one packet at node u, destined for dst, in the round being
// stepped (the packet is born in round s.round+1, matching arrival
// accounting).  It may only be called from the injector's call for u,
// which runs in u's phase-B shard; a packet to u itself is ignored.
func (s *Sim) Emit(u int, dst int32) {
	if int(dst) == u {
		return
	}
	s.perNode[u].injected++
	if !s.faulty {
		s.forward(s.shardOf(u), u, Packet{Dst: dst, Born: s.round + 1})
		return
	}
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
	s.push(s.shardOf(u), s.arcOff[u]+uint32(p), Packet{Dst: dst, Born: s.round + 1, TTL: s.ttl0})
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
		s.push(s.shardOf(u), s.arcOff[u]+uint32(p), Packet{Dst: dst, Born: s.round, TTL: s.ttl0})
		return nil
	}
	p := s.routePort(u, dst)
	a, ok := s.portArc(u, p)
	if !ok {
		return invalidPortError(u, dst, p)
	}
	s.push(s.shardOf(u), a, Packet{Dst: dst, Born: s.round})
	s.perNode[u].injected++
	return nil
}

// invalidPortError names a routing decision for a port node u lacks.
func invalidPortError(u int, dst int32, p int) error {
	return fmt.Errorf("netsim: router returned invalid port %d at node %d for dst %d", p, u, dst)
}

// parallelShards runs fn for every shard on the worker pool.  The worker
// closures are the persistent ones built in New; the spawned goroutines
// are joined by wg.Wait before return.
func (s *Sim) parallelShards(fn func(k int)) {
	switch len(s.shards) {
	case 0:
		return
	case 1:
		fn(0)
		return
	}
	s.curPhase = fn
	s.wg.Add(len(s.workerFns))
	for _, w := range s.workerFns {
		go w()
	}
	s.wg.Wait()
}

// transmit moves the first take waiting packets of arc a, owned by shard
// sh, into sh's flight list toward the arc's head node.
func (s *Sim) transmit(sh *shard, a uint32, take int) {
	v := s.ports[a]
	t := int(v) / s.chunk
	r := &s.rings[a]
	mask := uint32(len(r.buf) - 1)
	h := r.head
	out := sh.out[t]
	n := len(out)
	out = slices.Grow(out, take)[:n+take]
	for i := range out[n:] {
		out[n+i] = flight{to: v, Packet: r.buf[h]}
		h = (h + 1) & mask
	}
	sh.out[t] = out
	r.head = h
	if s.qlen[a] -= int32(take); s.qlen[a] == 0 {
		i := a - sh.arcLo
		sh.busy[i/64] &^= 1 << (i % 64)
	}
	sh.moved += int64(take)
	if s.offChip[a/64]&(1<<(a%64)) != 0 {
		sh.offchip += int64(take)
	}
}

// phaseA transmits up to capacity from each busy output queue of shard k,
// in ascending arc order.
func (s *Sim) phaseA(k int) {
	sh := &s.shards[k]
	if s.Net.SinglePort {
		for u := sh.lo; u < sh.hi; u++ {
			s.singlePortPhaseA(sh, u)
		}
		return
	}
	for i, w := range sh.busy {
		for w != 0 {
			a := sh.arcLo + uint32(i*64+bits.TrailingZeros64(w))
			w &= w - 1
			avail := int(s.qlen[a])
			take := avail
			if cap := s.caps[a]; cap < float64(avail) {
				// Token bucket: credits accumulate across rounds with
				// waiting packets up to one round's worth plus one packet.
				c := min(s.credits[a]+cap, cap+1)
				take = min(int(c), avail)
				s.credits[a] = c - float64(take)
			}
			if take > 0 {
				s.transmit(sh, a, take)
			}
		}
	}
}

// phaseB delivers or forwards the packets in flight to shard k's nodes,
// then runs their injectors.  s.round is stable for the whole phase
// (incremented only after the join in Step), so reading it here is
// race-free.
func (s *Sim) phaseB(k int) {
	sh := &s.shards[k]
	round := s.round
	for i := range s.shards {
		src := &s.shards[i]
		for _, f := range src.out[k] {
			s.arrive(sh, int(f.to), f.Packet, round)
		}
		src.out[k] = src.out[k][:0]
	}
	if s.injectFn != nil {
		// Dead nodes receive and forward nothing, but their injector still
		// runs: Emit accounts each intended packet as injected-then-dropped
		// so batch workloads drain to conservation.
		for v := sh.lo; v < sh.hi; v++ {
			s.injectFn(v, round+1)
		}
	}
}

// arrive delivers pkt at node v of shard sh, or routes it onward.
func (s *Sim) arrive(sh *shard, v int, pkt Packet, round int32) {
	if int(pkt.Dst) == v {
		ls := &s.perNode[v]
		ls.delivered++
		lat := int64(round + 1 - pkt.Born)
		ls.latency += lat
		if s.hist != nil {
			s.hist[v*s.histW+min(int(lat), s.histW-1)]++
		}
		return
	}
	if !s.faulty {
		s.forward(sh, v, pkt)
		return
	}
	// Each forwarding hop costs one TTL unit; a packet that runs out (or
	// has no alive route) is dropped, keeping injected = delivered +
	// dropped + in-flight exact.
	pkt.TTL--
	if pkt.TTL <= 0 {
		s.perNode[v].dropped++
		return
	}
	p := s.resolveFaulty(v, pkt.Dst)
	if p < 0 {
		s.perNode[v].dropped++
		return
	}
	s.push(sh, s.arcOff[v]+uint32(p), pkt)
}

// Step advances the simulation one round.  It returns the number of
// packets that moved (0 with packets in flight indicates livelock,
// reported as an error).  A router that returned a port its node lacks
// fails the round, with the offence at the lowest node reported.
func (s *Sim) Step() (int, error) {
	// Phase A: pop up to capacity from each busy output queue.
	s.parallelShards(s.phaseAFn)
	// Phase B: arrivals and injections, sharded by destination node.
	s.parallelShards(s.phaseBFn)
	s.round++
	s.stats.Rounds++
	moved := 0
	bad := badPort{node: -1}
	for i := range s.shards {
		sh := &s.shards[i]
		moved += int(sh.moved)
		sh.hops += sh.moved
		sh.moved = 0
		if sh.bad.node >= 0 && (bad.node < 0 || sh.bad.node < bad.node) {
			bad = sh.bad
		}
	}
	if bad.node >= 0 {
		return 0, invalidPortError(bad.node, bad.dst, bad.port)
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

// singlePortPhaseA transmits at most one packet at node u of shard sh, on
// the next nonempty port in round-robin order (credits still gate slow
// links).
func (s *Sim) singlePortPhaseA(sh *shard, u int) {
	base := s.arcOff[u]
	np := int(s.arcOff[u+1] - base)
	start := s.rrPort[u]
	for off := 0; off < np; off++ {
		p := (start + off) % np
		a := base + uint32(p)
		if s.qlen[a] == 0 {
			continue
		}
		if cap := s.caps[a]; cap < 1 {
			s.credits[a] = min(s.credits[a]+cap, cap+1)
			if s.credits[a] < 1 {
				continue // link not ready; try another port
			}
			s.credits[a]--
		}
		s.transmit(sh, a, 1)
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

// Stats reduces the per-node and per-shard counters into the aggregate
// view.
func (s *Sim) Stats() Stats {
	out := s.stats
	for i := range s.perNode {
		ls := &s.perNode[i]
		out.Delivered += ls.delivered
		out.TotalLatency += ls.latency
		out.Injected += ls.injected
		out.Dropped += ls.dropped
		out.Retried += ls.retried
	}
	for i := range s.shards {
		out.Hops += s.shards[i].hops
		out.OffChipHops += s.shards[i].offchip
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
	for i := range s.shards {
		s.shards[i].hops, s.shards[i].offchip = 0, 0
	}
}
