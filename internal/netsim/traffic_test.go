package netsim

import (
	"math/rand"
	"strings"
	"testing"

	"ipg/internal/topo"
)

func TestBitComplementStressesBisection(t *testing.T) {
	// Every bit-complement packet crosses the top-bit cut: off-chip hops
	// per packet equal the full intercluster distance l-1... on the
	// hypercube: every packet flips all d bits, so off-chip hops = d-logM.
	net := mustHypercube(t, 6, 2, 1e9)
	perm := BitComplement(6)
	res, err := RunPermutation(net, 1, perm, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 64 {
		t.Fatalf("delivered %d", res.Stats.Delivered)
	}
	// All 4 off-chip dimensions flipped by every packet.
	if got := res.Stats.OffChipPerPacket(); got != 4.0 {
		t.Errorf("off-chip per packet = %v, want 4", got)
	}
}

func TestHotSpotSaturatesEarlier(t *testing.T) {
	net := mustHypercube(t, 6, 2, 4.0)
	uniform, err := RunRandomUniform(net, 5, 0.3, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunHotSpot(net, 5, 0.3, 0.3, 0, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	// 30% of traffic converging on node 0 must hurt latency or saturate.
	if !hot.Saturated && hot.Latency <= uniform.Latency {
		t.Errorf("hot-spot latency %v should exceed uniform %v (or saturate)", hot.Latency, uniform.Latency)
	}
	if _, err := RunHotSpot(net, 5, 0.3, 1.5, 0, 10, 10); err == nil {
		t.Error("bad hotFrac should error")
	}
	if _, err := RunHotSpot(net, 5, 0.3, 0.5, 9999, 10, 10); err == nil {
		t.Error("bad hot node should error")
	}
}

func TestLatencyProbePercentiles(t *testing.T) {
	net := mustHypercube(t, 6, 2, 1e9)
	ps, err := LatencyProbe(net, 7, 0.1, 100, 300, []float64{0.5, 0.95, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !(ps[0] <= ps[1] && ps[1] <= ps[2]) {
		t.Errorf("percentiles not monotone: %v", ps)
	}
	// Median latency at low load ~ average distance 3 (within slack).
	if ps[0] < 1 || ps[0] > 6 {
		t.Errorf("median latency %d implausible", ps[0])
	}
	// Max cannot exceed the simulated horizon.
	if ps[2] > 400 {
		t.Errorf("max latency %d too large", ps[2])
	}
}

func TestLatencyHistogramLifecycle(t *testing.T) {
	net := mustHypercube(t, 4, 1, 1e9)
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LatencyPercentiles([]float64{0.5}); err == nil {
		t.Error("percentiles without histogram should error")
	}
	s.EnableLatencyHistogram(64)
	if _, err := s.LatencyPercentiles([]float64{0.5}); err == nil {
		t.Error("percentiles without deliveries should error")
	}
	if err := s.Enqueue(0, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := s.LatencyPercentiles([]float64{0.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != ps[1] || ps[0] < 1 {
		t.Errorf("single packet percentiles = %v", ps)
	}
	// Reset clears the histogram but keeps it enabled.
	s.ResetStats()
	if _, err := s.LatencyPercentiles([]float64{0.5}); err == nil {
		t.Error("after reset there are no recorded deliveries")
	}
	if _, err := s.LatencyPercentiles(nil); err == nil {
		// nil percentiles: fine, returns empty — but no deliveries, so
		// this must error first.
		t.Error("expected error with empty histogram")
	}
}

func TestRandomPermutationWorkload(t *testing.T) {
	net := mustHypercube(t, 6, 2, 1e9)
	perm := RandomPermutation(rand.New(rand.NewSource(3)), net.N)
	res, err := RunPermutation(net, 2, perm, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != countMoves(perm) {
		t.Errorf("delivered %d, want %d", res.Stats.Delivered, countMoves(perm))
	}
}

func TestAdaptiveRoutingHelpsAdversarialTraffic(t *testing.T) {
	// Bit-complement traffic concentrates on dimension-order paths; the
	// minimal adaptive router spreads it and must not be slower.
	base := mustHypercube(t, 8, 2, 4.0)
	adaptive := mustHypercube(t, 8, 2, 4.0)
	adaptive.Router = AdaptiveHypercube{D: 8}
	perm := BitComplement(8)
	rb, err := RunPermutation(base, 1, perm, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RunPermutation(adaptive, 1, perm, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.Delivered != rb.Stats.Delivered {
		t.Fatalf("deliveries differ: %d vs %d", ra.Stats.Delivered, rb.Stats.Delivered)
	}
	if ra.Rounds > rb.Rounds {
		t.Errorf("adaptive (%d rounds) slower than dimension-order (%d)", ra.Rounds, rb.Rounds)
	}
	// Minimal adaptivity preserves shortest paths.
	if ra.Stats.Hops != rb.Stats.Hops {
		t.Errorf("adaptive hops %d != minimal %d", ra.Stats.Hops, rb.Stats.Hops)
	}
}

func TestAdaptiveRouterFallback(t *testing.T) {
	r := AdaptiveHypercube{D: 4}
	idle := make([]int32, 4)
	if r.NextPort(5, 5) != -1 || r.NextPortAdaptive(5, 5, idle) != -1 {
		t.Error("at-destination should return -1")
	}
	// With equal queues it picks the lowest differing dimension, matching
	// dimension-order.
	got := r.NextPortAdaptive(0b0000, 0b1010, idle)
	if got != 1 {
		t.Errorf("tie-break port = %d, want 1", got)
	}
	// With a congested low dimension it diverts.
	got = r.NextPortAdaptive(0b0000, 0b1010, []int32{0, 5, 0, 0})
	if got != 3 {
		t.Errorf("diverted port = %d, want 3", got)
	}
}

func TestSinglePortSlowsTotalExchange(t *testing.T) {
	// Under the single-port model each node injects at most one packet per
	// round, so a TE must take roughly degree times longer than all-port.
	allPort := mustHypercube(t, 5, 1, 1e9)
	single := mustHypercube(t, 5, 1, 1e9)
	single.SinglePort = true
	ra, err := RunTotalExchange(allPort, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunTotalExchange(single, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.Delivered != rs.Stats.Delivered {
		t.Fatalf("deliveries differ: %d vs %d", ra.Stats.Delivered, rs.Stats.Delivered)
	}
	if rs.Rounds <= ra.Rounds {
		t.Errorf("single-port TE (%d rounds) should be slower than all-port (%d)", rs.Rounds, ra.Rounds)
	}
	ratio := float64(rs.Rounds) / float64(ra.Rounds)
	if ratio < 1.5 || ratio > 12 {
		t.Errorf("single/all-port ratio = %.2f, want within (1.5, 12)", ratio)
	}
}

func TestSinglePortRoundRobinFairness(t *testing.T) {
	// A node with packets on two ports must alternate between them.
	net := &Network{
		Name:  "fork",
		N:     3,
		Ports: topo.PortMapFromRows([][]int32{{1, 2}, {}, {}}, [][]float64{{1, 1}, {}, {}}),
		Router: routeFunc(func(cur, dst int) int {
			return dst - 1
		}),
		SinglePort: true,
	}
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Enqueue(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	// 8 packets, one transmission per round: 8 rounds to drain.
	for i := 0; i < 8; i++ {
		moved, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if moved != 1 {
			t.Fatalf("round %d moved %d packets, want 1", i, moved)
		}
	}
	if st := s.Stats(); st.Delivered != 8 {
		t.Errorf("delivered %d, want 8", st.Delivered)
	}
}

// TestFailureInjectionBrokenRouter verifies the simulator detects a router
// that sends packets in circles (undeliverable traffic must surface as an
// error, not silent loss).
func TestFailureInjectionBrokenRouter(t *testing.T) {
	net := mustHypercube(t, 4, 1, 8.0)
	// A router that always returns port 0 never reaches most destinations.
	net.Router = routeFunc(func(cur, dst int) int { return 0 })
	perm := BitComplement(4)
	if _, err := RunPermutation(net, 1, perm, 200); err == nil {
		t.Error("broken router should produce an undelivered-packets error")
	}
}

// TestFailureInjectionInvalidPort verifies that a router answer that is
// not a present port of the node is rejected on a healthy network, naming
// the node, the destination and the port: by Enqueue at the source, and by
// Step when it comes while forwarding or from an injector's Emit.  Pushing
// the packet anyway would queue it on another node's arc, or index before
// arc 0 at node 0.
func TestFailureInjectionInvalidPort(t *testing.T) {
	net := mustHypercube(t, 4, 1, 8.0)
	net.Router = routeFunc(func(cur, dst int) int { return 99 })
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, 3); err == nil || !strings.Contains(err.Error(), "port 99 at node 0 for dst 3") {
		t.Errorf("Enqueue error %v, want the invalid port named", err)
	}

	q4 := func(at, dst, port int) *Network {
		net := mustHypercube(t, 4, 1, 8.0)
		net.Router = routeFunc(func(cur, d int) int {
			if cur == at && d == dst {
				return port
			}
			return HypercubeRouter{D: 4}.NextPort(cur, d)
		})
		return net
	}
	// Node 1 of this path has ports {0, 2, absent}.
	path := &Network{
		Name:  "path",
		N:     3,
		Ports: topo.PortMapFromRows([][]int32{{1}, {0, 2, -1}, {1}}, [][]float64{{1}, {1, 1, 1}, {1}}),
		Router: routeFunc(func(cur, dst int) int {
			if cur == 1 {
				return 2 // absent at node 1
			}
			return 0
		}),
	}
	emitOnce := func(u int, dst int32) func(s *Sim) {
		return func(s *Sim) {
			s.SetInjector(func(v int, round int32) {
				if v == u && round == 1 {
					s.Emit(v, dst)
				}
			})
		}
	}
	enqueue := func(u int, dst int32) func(s *Sim) {
		return func(s *Sim) {
			if err := s.Enqueue(u, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		net   *Network
		start func(s *Sim)
		want  string
	}{
		{"forward -1 at node 5", q4(5, 9, -1), enqueue(4, 9), "port -1 at node 5 for dst 9"},
		{"forward -1 at node 0", q4(0, 2, -1), enqueue(1, 2), "port -1 at node 0 for dst 2"},
		{"emit port=arity at node 0", q4(0, 7, 4), emitOnce(0, 7), "port 4 at node 0 for dst 7"},
		{"forward absent port", path, enqueue(0, 2), "port 2 at node 1 for dst 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.net, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.start(s)
			for r := 0; r < 8; r++ {
				if _, err = s.Step(); err != nil {
					break
				}
			}
			if err == nil {
				t.Fatalf("no error; stats %+v", s.Stats())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
}
