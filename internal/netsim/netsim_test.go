package netsim

import (
	"math"
	"runtime"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

func mustHypercube(t *testing.T, d, logM int, cap float64) *Network {
	t.Helper()
	net, err := BuildHypercube(d, logM, cap)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustHSN(t *testing.T, l, k int, cap float64) (*Network, *superipg.Network) {
	t.Helper()
	w := superipg.HSN(l, nucleus.Hypercube(k))
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildSuperIPG(w, g, cap, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net, w
}

func TestHypercubeLowLoadLatency(t *testing.T) {
	// At very low load, latency approaches the unloaded average distance:
	// d/2 for random pairs on a d-cube (plus queueing noise).
	net := mustHypercube(t, 8, 2, 1e9) // effectively infinite capacity
	res, err := RunRandomUniform(net, 1, 0.05, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Average Hamming distance between distinct random nodes: d/2 * N/(N-1).
	want := 4.0 * 256 / 255
	if math.Abs(res.Latency-want) > 0.3 {
		t.Errorf("low-load latency = %v, want about %v", res.Latency, want)
	}
	if res.Saturated {
		t.Error("low load should not saturate")
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Off-chip transmissions per packet ~ (d - logM)/2 (Section 4.1's
	// claim that random routing needs log2 N - log2 M off-chip hops in the
	// worst case, half that on average).
	wantOff := 3.0 * 256 / 255
	if math.Abs(res.Stats.OffChipPerPacket()-wantOff) > 0.2 {
		t.Errorf("off-chip per packet = %v, want about %v", res.Stats.OffChipPerPacket(), wantOff)
	}
}

func TestHSNOffChipPerPacket(t *testing.T) {
	// E13: random routing on an HSN(3,Q2) needs on average
	// (l-1)(M-1)/M = 1.5 off-chip transmissions per packet, independent of
	// log N — the paper's key MCMP advantage.
	net, _ := mustHSN(t, 3, 2, 1e9)
	res, err := RunRandomUniform(net, 2, 0.05, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5 * 64 / 63
	if math.Abs(res.Stats.OffChipPerPacket()-want) > 0.15 {
		t.Errorf("HSN off-chip per packet = %v, want about %v", res.Stats.OffChipPerPacket(), want)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The two-phase sharding must make results independent of GOMAXPROCS:
	// per-node random streams (injection and oblivious fault diverts),
	// adaptive fault-aware routing, drains and destination-parallel router
	// builds included.  Networks and routers are rebuilt at each setting.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	degraded := func(t *testing.T, net *Network, spec fault.Spec, aware bool) *Network {
		d, _, err := Degrade(net, spec)
		if err != nil {
			t.Fatal(err)
		}
		if aware {
			r, err := NewFaultAwareRouter(d)
			if err != nil {
				t.Fatal(err)
			}
			d.Router = r
		}
		return d
	}
	random := func(t *testing.T, net *Network) Stats {
		res, err := RunRandomUniform(net, 99, 0.4, 80, 150)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	cases := []struct {
		name string
		run  func(t *testing.T) Stats
	}{
		{"healthy-hypercube", func(t *testing.T) Stats {
			return random(t, mustHypercube(t, 7, 2, 4.0))
		}},
		{"node-faulted-oblivious", func(t *testing.T) Stats {
			hsn, _ := mustHSN(t, 3, 2, 8)
			st := random(t, degraded(t, hsn, fault.Spec{Mode: fault.Nodes, Count: 6, Seed: 4}, false))
			if st.Retried == 0 {
				t.Fatal("no oblivious diverts: the case does not exercise the per-node streams")
			}
			return st
		}},
		{"link-faulted-aware", func(t *testing.T) Stats {
			return random(t, degraded(t, mustHypercube(t, 7, 2, 4.0), fault.Spec{Mode: fault.Links, Count: 40, Seed: 2}, true))
		}},
		{"total-exchange", func(t *testing.T) Stats {
			hsn, _ := mustHSN(t, 3, 2, 8)
			res, err := RunTotalExchange(hsn, 5, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"complete-CN-table", func(t *testing.T) Stats {
			w := superipg.CompleteCN(3, nucleus.Hypercube(2))
			net, err := BuildSuperIPG(w, w.MustBuild(), 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			return random(t, net)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var baseline Stats
			for i, workers := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(workers)
				st := c.run(t)
				if i == 0 {
					baseline = st
					continue
				}
				if st != baseline {
					t.Fatalf("workers=%d produced %+v, baseline %+v", workers, st, baseline)
				}
			}
		})
	}
}

// TestNewAllocsConstant pins New's set-up to a fixed number of allocations
// whatever the node count: every per-node and per-arc table is one flat
// slice, with no per-node generators, queues or closures.
func TestNewAllocsConstant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocs := func(d int) float64 {
		net := mustHypercube(t, d, 2, 4.0)
		return testing.AllocsPerRun(5, func() {
			if _, err := New(net, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4), allocs(10); small != large {
		t.Errorf("New allocates %v times at 16 nodes but %v at 1024", small, large)
	}
}

// TestAdaptiveRoutingZeroAllocs: an adaptive routing decision reads the
// simulator's queue-length row in place.
func TestAdaptiveRoutingZeroAllocs(t *testing.T) {
	net := mustHypercube(t, 6, 2, 4.0)
	net.Router = AdaptiveHypercube{D: 6}
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { s.routePort(5, 42) }); a != 0 {
		t.Errorf("adaptive routing decision allocates %v times, want 0", a)
	}
}

func TestDeterminism(t *testing.T) {
	net := mustHypercube(t, 6, 2, 4.0)
	a, err := RunRandomUniform(net, 7, 0.3, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRandomUniform(net, 7, 0.3, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestPermutationTranspose(t *testing.T) {
	net := mustHypercube(t, 8, 2, 8.0)
	perm, err := Transpose(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPermutation(net, 3, perm, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != countMoves(perm) {
		t.Errorf("delivered %d, want %d", res.Stats.Delivered, countMoves(perm))
	}
	if res.Rounds <= 0 {
		t.Error("no rounds?")
	}
}

func countMoves(perm []int32) int64 {
	var c int64
	for u, d := range perm {
		if int(d) != u {
			c++
		}
	}
	return c
}

func TestBitReversePerm(t *testing.T) {
	perm := BitReversePerm(4)
	if perm[0b0001] != 0b1000 || perm[0b1010] != 0b0101 {
		t.Error("bit reversal wrong")
	}
	if _, err := Transpose(5); err == nil {
		t.Error("odd logN should error")
	}
}

func TestTotalExchangeOffChipCensus(t *testing.T) {
	// E14: the simulated total exchange must use exactly N^2 * avgIC
	// off-chip transmissions on both the hypercube (dimension-order
	// routing) and the HSN (hierarchical routing): both routers are
	// intercluster-optimal.
	cube := mustHypercube(t, 6, 2, 1e9)
	resC, err := RunTotalExchange(cube, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// avgIC over ordered pairs incl self = (d-logM)/2 = 2; count excludes
	// nothing since self pairs contribute 0.
	wantC := TotalExchangeOffChipLowerBound(64, 2.0)
	if float64(resC.Stats.OffChipHops) != wantC {
		t.Errorf("cube TE off-chip hops = %d, want %v", resC.Stats.OffChipHops, wantC)
	}

	hsn, w := mustHSN(t, 3, 2, 1e9)
	resH, err := RunTotalExchange(hsn, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	wantH := TotalExchangeOffChipLowerBound(64, 1.5)
	if float64(resH.Stats.OffChipHops) != wantH {
		t.Errorf("HSN TE off-chip hops = %d, want %v", resH.Stats.OffChipHops, wantH)
	}
	if resH.Stats.OffChipHops >= resC.Stats.OffChipHops {
		t.Error("HSN should use fewer off-chip transmissions than the hypercube")
	}
}

func TestSaturationHSNBeatsHypercube(t *testing.T) {
	// E15 at small scale: 64 nodes, 16 chips of 4, equal chip budget.
	// Analytic saturation: hypercube C/8, HSN(3,Q2) C/6 (33% higher).
	const C = 3.0
	cube := mustHypercube(t, 6, 2, C)
	hsn, _ := mustHSN(t, 3, 2, C)
	cubeTh, _, err := SaturationThroughput(cube, 11, 0.05, 1.0, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	hsnTh, _, err := SaturationThroughput(hsn, 11, 0.05, 1.0, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hsnTh <= cubeTh {
		t.Errorf("HSN throughput %v should beat hypercube %v", hsnTh, cubeTh)
	}
	// The analytic ratio is 4/3; allow simulation slack.
	ratio := hsnTh / cubeTh
	if ratio < 1.1 || ratio > 1.7 {
		t.Errorf("throughput ratio = %v, want around 1.33", ratio)
	}
}

func TestUnitLinkComparableThroughput(t *testing.T) {
	// Section 4.1: "when the unit link capacity model is assumed, HSNs,
	// complete-CNs, SFNs, and hypercubes have comparable throughput for
	// these communication-intensive tasks (usually within a factor of
	// 1+o(1) or 2+o(1))".  Under unit link capacity the MCMP advantage
	// disappears: saturation rates must be within a small constant factor.
	cube := mustHypercube(t, 6, 2, 1.0)
	UniformCapacity(cube, 1.0)
	hsn, _ := mustHSN(t, 3, 2, 1.0)
	UniformCapacity(hsn, 1.0)
	cubeTh, _, err := SaturationThroughput(cube, 21, 0.1, 3.0, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	hsnTh, _, err := SaturationThroughput(hsn, 21, 0.1, 3.0, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	if cubeTh <= 0 || hsnTh <= 0 {
		t.Fatalf("degenerate throughputs %v, %v", cubeTh, hsnTh)
	}
	ratio := cubeTh / hsnTh
	if ratio < 1.0/3.0 || ratio > 3.0 {
		t.Errorf("unit-link throughput ratio cube/HSN = %.2f, want within 3x", ratio)
	}
}

func TestHSNRouterDeliversShortest(t *testing.T) {
	// Every packet on the HSN router takes exactly
	// (#differing suffix groups) off-chip hops.
	net, w := mustHSN(t, 3, 2, 1e9)
	g := w.MustBuild()
	m := w.SymbolLen()
	for src := 0; src < g.N(); src += 7 {
		for dst := 0; dst < g.N(); dst += 5 {
			if src == dst {
				continue
			}
			cur := src
			off := 0
			for steps := 0; cur != dst; steps++ {
				if steps > 50 {
					t.Fatalf("route %d->%d too long", src, dst)
				}
				p := net.Router.NextPort(cur, dst)
				next := int(net.Ports.Port(cur, p))
				if next < 0 {
					t.Fatalf("router chose absent port at %d", cur)
				}
				if net.ClusterOf[cur] != net.ClusterOf[next] {
					off++
				}
				cur = next
			}
			want := 0
			for i := 1; i < w.L; i++ {
				if !g.Label(src).Group(m, i).Equal(g.Label(dst).Group(m, i)) {
					want++
				}
			}
			if off != want {
				t.Fatalf("route %d->%d used %d off-chip hops, want %d", src, dst, off, want)
			}
		}
	}
}

func TestTableRouterOnCompleteCN(t *testing.T) {
	w := superipg.CompleteCN(3, nucleus.Hypercube(2))
	g := w.MustBuild()
	// A nil router makes BuildSuperIPG build the family's table router.
	net, err := BuildSuperIPG(w, g, 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Router.(*TableRouter); !ok {
		t.Fatalf("BuildSuperIPG picked %T for complete-CN, want *TableRouter", net.Router)
	}
	res, err := RunRandomUniform(net, 9, 0.1, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("table-routed CN delivered nothing")
	}
	// Latency at low load ~ average distance of the network.
	u := g.Undirected()
	avg := u.AverageDistance() * float64(g.N()) / float64(g.N()-1)
	if math.Abs(res.Latency-avg) > 0.5 {
		t.Errorf("CN latency = %v, want about %v", res.Latency, avg)
	}
}

func TestTorusSimulatedNetwork(t *testing.T) {
	net, err := BuildTorus2D(8, 2, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunRandomUniform(net, 3, 0.1, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("torus delivered nothing")
	}
	if res.Stats.HopsPerPacket() <= 1 {
		t.Errorf("hops/packet = %v, implausible", res.Stats.HopsPerPacket())
	}
	// Bad chip sides rejected.
	if _, err := BuildTorus2D(8, 3, 4.0); err == nil {
		t.Error("side not dividing k should error")
	}
	if _, err := BuildTorus2D(8, 8, 4.0); err == nil {
		t.Error("single-chip torus should error")
	}
	// TorusRouter at destination.
	if (TorusRouter{K: 8, Dims: 2}).NextPort(5, 5) != -1 {
		t.Error("at-destination should return -1")
	}
}

func TestGraphPortMap(t *testing.T) {
	w := superipg.HSN(2, nucleus.Hypercube(2))
	u := w.MustBuild().Undirected()
	pm, err := topo.FromSource(u, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if pm.N() != u.N() {
		t.Fatal("length mismatch")
	}
	for v := 0; v < u.N(); v++ {
		if pm.Arity(v) != u.CSR().Degree(v) {
			t.Fatalf("node %d has %d ports, degree %d", v, pm.Arity(v), u.CSR().Degree(v))
		}
		for p := 0; p < pm.Arity(v); p++ {
			if pm.Cap(v, p) != 2.5 {
				t.Fatal("capacity not applied")
			}
		}
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var st Stats
	if st.AvgLatency() != 0 || st.OffChipPerPacket() != 0 || st.HopsPerPacket() != 0 {
		t.Error("zero-delivery stats should be 0")
	}
}

func TestValidation(t *testing.T) {
	net := &Network{Name: "bad", N: 2}
	if err := net.Validate(); err == nil {
		t.Error("missing ports should fail")
	}
	good := mustHypercube(t, 3, 1, 1.0)
	if err := good.Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
	good.Router = nil
	if err := good.Validate(); err == nil {
		t.Error("nil router should fail")
	}
}

func TestEnqueueErrors(t *testing.T) {
	net := mustHypercube(t, 3, 1, 1.0)
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(3, 3); err == nil {
		t.Error("self packet should error")
	}
}

func TestFractionalCapacity(t *testing.T) {
	// A 0.5-capacity link moves one packet every two rounds.
	net := &Network{
		Name:  "pair",
		N:     2,
		Ports: topo.PortMapFromRows([][]int32{{1}, {0}}, [][]float64{{0.5}, {0.5}}),
		Router: routeFunc(func(cur, dst int) int {
			return 0
		}),
	}
	s, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// 10 rounds at 0.5/round, plus up to 1 burst credit.
	if st.Delivered < 5 || st.Delivered > 6 {
		t.Errorf("delivered %d over 10 rounds on 0.5-cap link, want 5-6", st.Delivered)
	}
}

type routeFunc func(cur, dst int) int

func (f routeFunc) NextPort(cur, dst int) int { return f(cur, dst) }
