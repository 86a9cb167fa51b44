package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/ist"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// faultTestNetworks builds the three families the fault-routing claims are
// checked on: hypercube, torus, and an HSN super-IPG, each with chips.
func faultTestNetworks(t *testing.T) []*Network {
	t.Helper()
	hc, err := BuildHypercube(6, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := BuildTorus2D(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := superipg.HSN(3, nucleus.Hypercube(2))
	g := w.MustBuild()
	hsn, err := BuildSuperIPG(w, g, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []*Network{hc, torus, hsn}
}

// conservationCheck asserts the exact packet-accounting invariant of a
// faulty run: injected = delivered + dropped + in-flight.
func conservationCheck(t *testing.T, name string, st Stats) {
	t.Helper()
	if st.Injected != st.Delivered+st.Dropped+st.InFlight {
		t.Fatalf("%s: conservation broken: injected %d != delivered %d + dropped %d + in-flight %d",
			name, st.Injected, st.Delivered, st.Dropped, st.InFlight)
	}
}

// permTotal counts the packets a permutation run injects.
func permTotal(perm []int32) int64 {
	var total int64
	for u, d := range perm {
		if int(d) != u {
			total++
		}
	}
	return total
}

// randomPerm builds a deterministic derangement-ish permutation by
// rotating node ids (every node sends, no fixed points when n > 1).
func rotatePerm(n int) []int32 {
	perm := make([]int32, n)
	for v := 0; v < n; v++ {
		perm[v] = int32((v + n/2 + 1) % n)
	}
	return perm
}

// TestFaultConservation drives degraded networks under every supported
// failure mode with both oblivious and fault-aware routing, stepping
// manually so the invariant is checked mid-flight as well as at the end.
func TestFaultConservation(t *testing.T) {
	for _, base := range faultTestNetworks(t) {
		base := base
		links := len(undirectedLinks(base))
		specs := []fault.Spec{
			{Mode: fault.Links, Count: links / 20, Seed: 3},
			{Mode: fault.Nodes, Count: base.N / 16, Seed: 4},
			{Mode: fault.Chips, Count: 2, Seed: 5},
		}
		for _, spec := range specs {
			for _, aware := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/aware=%v", base.Name, spec.Mode, aware)
				t.Run(name, func(t *testing.T) {
					net, sum, err := Degrade(base, spec)
					if err != nil {
						t.Fatal(err)
					}
					if !net.Faulty() || base.Faulty() {
						t.Fatal("Degrade must mark the copy faulty and leave the base untouched")
					}
					switch spec.Mode {
					case fault.Links:
						if len(sum.DeadLinks) != spec.Count {
							t.Fatalf("killed %d links, want %d", len(sum.DeadLinks), spec.Count)
						}
					case fault.Nodes:
						if len(sum.DeadNodes) != spec.Count {
							t.Fatalf("killed %d nodes, want %d", len(sum.DeadNodes), spec.Count)
						}
					case fault.Chips:
						if len(sum.DeadChips) != spec.Count || len(sum.DeadNodes) == 0 {
							t.Fatalf("killed %d chips / %d nodes", len(sum.DeadChips), len(sum.DeadNodes))
						}
					}
					if aware {
						r, err := NewFaultAwareRouter(net)
						if err != nil {
							t.Fatal(err)
						}
						net.Router = r
					}
					s, err := New(net, 99)
					if err != nil {
						t.Fatal(err)
					}
					perm := rotatePerm(net.N)
					for u, d := range perm {
						if err := s.Enqueue(u, d); err != nil {
							t.Fatal(err)
						}
					}
					total := permTotal(perm)
					for r := 0; r < 4096; r++ {
						if _, err := s.Step(); err != nil {
							t.Fatal(err)
						}
						st := s.Stats()
						conservationCheck(t, name, st)
						if st.Delivered+st.Dropped >= total {
							break
						}
					}
					st := s.Stats()
					conservationCheck(t, name, st)
					if st.Delivered+st.Dropped != total {
						t.Fatalf("%s: %d packets unaccounted after 4096 rounds (delivered %d dropped %d)",
							name, total-st.Delivered-st.Dropped, st.Delivered, st.Dropped)
					}
					if st.Injected != total {
						t.Fatalf("%s: injected %d, want %d", name, st.Injected, total)
					}
					if aware && st.Retried != 0 {
						t.Fatalf("%s: fault-aware routing should never misroute, saw %d retries", name, st.Retried)
					}
				})
			}
		}
	}
}

// awareReachable counts the packets of perm whose source and destination
// are both alive and connected over alive links: exactly the set a
// fault-aware router must deliver.
func awareReachable(net *Network, r *FaultAwareRouter, perm []int32) int64 {
	var total int64
	for u, d := range perm {
		if int(d) == u || net.nodeDead(u) {
			continue
		}
		if net.nodeDead(int(d)) || r.dist[int(d)*r.n+u] < 0 {
			continue
		}
		total++
	}
	return total
}

// TestFaultAwareBeatsOblivious: under ~5% uniform link faults, the
// fault-aware router delivers at least as many packets as the oblivious
// router on every family (it delivers every reachable packet; the
// oblivious router's random diversions can cycle until TTL death).
func TestFaultAwareBeatsOblivious(t *testing.T) {
	for _, base := range faultTestNetworks(t) {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			links := len(undirectedLinks(base))
			count := links / 20 // ~5%
			if count < 1 {
				count = 1
			}
			perm := rotatePerm(base.N)
			total := permTotal(perm)
			for seed := int64(1); seed <= 3; seed++ {
				spec := fault.Spec{Mode: fault.Links, Count: count, Seed: seed}
				run := func(aware bool) Stats {
					net, _, err := Degrade(base, spec)
					if err != nil {
						t.Fatal(err)
					}
					var far *FaultAwareRouter
					if aware {
						far, err = NewFaultAwareRouter(net)
						if err != nil {
							t.Fatal(err)
						}
						net.Router = far
					}
					res, err := RunPermutation(net, 7, perm, 1<<16)
					if err != nil {
						t.Fatalf("aware=%v seed=%d: %v", aware, seed, err)
					}
					st := res.Stats
					conservationCheck(t, base.Name, st)
					if st.InFlight != 0 {
						t.Fatalf("aware=%v seed=%d: %d packets still in flight", aware, seed, st.InFlight)
					}
					if aware {
						if want := awareReachable(net, far, perm); st.Delivered != want {
							t.Fatalf("seed %d: aware delivered %d of %d reachable packets", seed, st.Delivered, want)
						}
					}
					return st
				}
				obl := run(false)
				awr := run(true)
				if obl.Injected != total || awr.Injected != total {
					t.Fatalf("seed %d: injected %d/%d, want %d", seed, obl.Injected, awr.Injected, total)
				}
				if awr.Delivered < obl.Delivered {
					t.Fatalf("seed %d: aware delivered %d < oblivious %d", seed, awr.Delivered, obl.Delivered)
				}
			}
		})
	}
}

// TestDegradeZeroAndErrors pins the edge cases: a zero-count degrade is a
// healthy copy, adversarial mode is rejected, and oversized counts fail.
func TestDegradeZeroAndErrors(t *testing.T) {
	base, err := BuildHypercube(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, sum, err := Degrade(base, fault.Spec{Mode: fault.Links, Count: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net.Faulty() || len(sum.DeadLinks) != 0 {
		t.Fatal("zero-count degrade must be healthy")
	}
	bad := []fault.Spec{
		{Mode: fault.Adversarial, Count: 1},
		{Mode: fault.Nodes, Count: base.N},
		{Mode: fault.Links, Count: 1 << 20},
		{Mode: fault.Nodes, Count: -1},
		{Mode: "bogus", Count: 1},
	}
	for _, spec := range bad {
		if _, _, err := Degrade(base, spec); err == nil {
			t.Fatalf("spec %+v: expected error", spec)
		}
	}
	// Degrading a degraded network is refused.
	d, _, err := Degrade(base, fault.Spec{Mode: fault.Nodes, Count: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Degrade(d, fault.Spec{Mode: fault.Nodes, Count: 1, Seed: 2}); err == nil {
		t.Fatal("double degrade should fail")
	}
}

// TestHealthyPathUntouched: a zero-fault degraded copy must behave
// bit-identically to the base network (the fault branches are all gated).
func TestHealthyPathUntouched(t *testing.T) {
	base, err := BuildHypercube(6, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	perm := rotatePerm(base.N)
	resBase, err := RunPermutation(base, 7, perm, 4096)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := Degrade(base, fault.Spec{Mode: fault.Links, Count: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resDeg, err := RunPermutation(net, 7, perm, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if resBase.Stats != resDeg.Stats || resBase.Rounds != resDeg.Rounds {
		t.Fatalf("zero-fault run diverged: %+v vs %+v", resBase, resDeg)
	}
}

// scalarAliveDistances is the reference for the routing core's MSBFS
// distance rows: one scalar reverse BFS per destination over the alive
// arcs.  ref[dst*n+u] is u's alive hop distance to dst, -1 when u cannot
// reach it; a dead destination's row is all -1.
func scalarAliveDistances(net *Network) []int16 {
	n := net.N
	into := make([][]int, n) // into[v] lists the sources of v's alive in-arcs
	for u := 0; u < n; u++ {
		if net.nodeDead(u) {
			continue
		}
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 && int(v) != u && !net.portDead(u, p) {
				into[v] = append(into[v], u)
			}
		}
	}
	ref := make([]int16, n*n)
	for i := range ref {
		ref[i] = -1
	}
	for dst := 0; dst < n; dst++ {
		if net.nodeDead(dst) {
			continue
		}
		row := ref[dst*n : (dst+1)*n]
		row[dst] = 0
		for queue := []int{dst}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			for _, u := range into[v] {
				if row[u] < 0 {
					row[u] = row[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return ref
}

// TestFaultAwareRowsMatchScalar checks the distance rows FaultAwareRouter
// and MultipathRouter's fallback tier take from MSBFS against the scalar
// reference, under node, link and chip faults and at GOMAXPROCS 1, 2 and
// 7.  The multipath trees are empty, so every alive pair takes the
// fallback tier.  A one-way alive arc must be rejected by name.
func TestFaultAwareRowsMatchScalar(t *testing.T) {
	q2, q3 := nucleus.Hypercube(2), nucleus.Hypercube(3)
	super := func(w *superipg.Network) *Network {
		net, err := BuildSuperIPG(w, w.MustBuild(), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	q9, err := BuildHypercube(9, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := BuildTorus2D(24, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	hsnQ2 := super(superipg.HSN(3, q2))
	// The five networks perfbench's sim-compute workload simulates, then
	// three more families with chips.
	nets := []*Network{
		super(superipg.HSN(3, q3)), super(superipg.SFN(3, q3)), super(superipg.RingCN(3, q3)), q9, torus,
		hsnQ2, super(superipg.CompleteCN(3, q3)), super(superipg.RCC(2, q2)),
	}
	var cases []distanceCase
	add := func(base *Network, spec fault.Spec) {
		net, _, err := Degrade(base, spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, newDistanceCase(fmt.Sprintf("%s/%s=%d", base.Name, spec.Mode, spec.Count), net))
	}
	for _, base := range nets {
		add(base, fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 1})
		add(base, fault.Spec{Mode: fault.Links, Count: 8, Seed: 2})
		add(base, fault.Spec{Mode: fault.Chips, Count: 1, Seed: 3})
	}
	add(hsnQ2, fault.Spec{Mode: fault.Links, Count: 40, Seed: 5})
	if last := cases[len(cases)-1]; last.unreachable == 0 {
		t.Fatalf("%s: still connected; the case must cover unreachable pairs", last.name)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			c.check(t, fmt.Sprintf("procs=%d %s", procs, c.name))
		}
	}

	// Node 1's port 1 leads to node 2, but no port of node 2 leads back.
	oneWay := &Network{
		Name:   "one-way",
		N:      3,
		Ports:  topo.PortMapFromRows([][]int32{{1, 2}, {0, 2}, {0}}, [][]float64{{1, 1}, {1, 1}, {1}}),
		Router: routeFunc(func(cur, dst int) int { return -1 }),
	}
	for name, build := range map[string]func() error{
		"FaultAwareRouter": func() error { _, err := NewFaultAwareRouter(oneWay); return err },
		"MultipathRouter":  func() error { _, err := NewMultipathRouter(oneWay, noTrees(3)); return err },
	} {
		if err := build(); err == nil || !strings.Contains(err.Error(), "1->2") {
			t.Errorf("%s on a one-way arc: err = %v, want one naming arc 1->2", name, err)
		}
	}
}

// noTrees is a multipath tree source with no trees, which sends every
// alive pair of an n-node network to the fallback tier.
func noTrees(n int) TreeSource {
	return func(dst int) (*ist.Trees, error) { return &ist.Trees{Root: dst, N: n}, nil }
}

// distanceCase holds a degraded network with the tables the scalar
// reference predicts for it.
type distanceCase struct {
	name string
	net  *Network
	// dist is the scalar reference; port[dst*n+u] is the fallback port it
	// implies (-1 at dead endpoints, at dst and where dst is unreachable).
	dist, port            []int16
	fallback, unreachable int64
}

func newDistanceCase(name string, net *Network) distanceCase {
	n := net.N
	c := distanceCase{name: name, net: net, dist: scalarAliveDistances(net), port: make([]int16, n*n)}
	for dst := 0; dst < n; dst++ {
		row := c.dist[dst*n : (dst+1)*n]
		for u := 0; u < n; u++ {
			c.port[dst*n+u] = -1
			switch {
			case u == dst || net.nodeDead(u) || net.nodeDead(dst):
			case row[u] < 0:
				c.unreachable++
			default:
				c.port[dst*n+u] = int16(minimalPort(net, row, u))
				c.fallback++
			}
		}
	}
	return c
}

// check builds both distance-row consumers and compares them with the
// reference.
func (c distanceCase) check(t *testing.T, name string) {
	t.Helper()
	far, err := NewFaultAwareRouter(c.net)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(far.dist, c.dist) {
		t.Errorf("%s: FaultAwareRouter rows differ from the scalar reverse BFS", name)
	}
	mp, err := NewMultipathRouter(c.net, noTrees(c.net.N))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(mp.port, c.port) {
		t.Errorf("%s: multipath fallback rows differ from the scalar reverse BFS", name)
	}
	if tp, fp, up := mp.TreePairs.Load(), mp.FallbackPairs.Load(), mp.UnreachablePairs.Load(); tp != 0 || fp != c.fallback || up != c.unreachable {
		t.Errorf("%s: multipath pairs = %d/%d/%d, want 0/%d/%d", name, tp, fp, up, c.fallback, c.unreachable)
	}
}
