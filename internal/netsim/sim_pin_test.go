package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

// valuesDigest is the FNV-1a hash of vals, each written as eight
// little-endian bytes.
func valuesDigest(vals []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// statsValues lists every Stats field, in declaration order.
func statsValues(st Stats) []int64 {
	return []int64{int64(st.Rounds), st.Injected, st.Delivered, st.Dropped, st.Retried,
		st.TotalLatency, st.Hops, st.OffChipHops, st.InFlight}
}

// simPinCase is one simulation whose answers are pinned: run returns the
// values the digest covers.
type simPinCase struct {
	name string
	run  func(t *testing.T) []int64
	want uint64
}

// simPinCases builds the pinned networks once; every run builds its own
// Sim, so the worker count is the GOMAXPROCS in force at the run.
func simPinCases(t *testing.T) []simPinCase {
	superNet := func(w *superipg.Network, cap float64) *Network {
		net, err := BuildSuperIPG(w, w.MustBuild(), cap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	built := func(net *Network, err error) *Network {
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	degraded := func(base *Network, spec fault.Spec, aware bool) *Network {
		net, _, err := Degrade(base, spec)
		if err != nil {
			t.Fatal(err)
		}
		if aware {
			r, err := NewFaultAwareRouter(net)
			if err != nil {
				t.Fatal(err)
			}
			net.Router = r
		}
		return net
	}
	random := func(net *Network, seed int64, rate float64, warmup, measure int) func(t *testing.T) []int64 {
		return func(t *testing.T) []int64 {
			res, err := RunRandomUniform(net, seed, rate, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			saturated := int64(0)
			if res.Saturated {
				saturated = 1
			}
			return append(statsValues(res.Stats), saturated)
		}
	}
	drain := func(run func() (DrainResult, error)) func(t *testing.T) []int64 {
		return func(t *testing.T) []int64 {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			return append(statsValues(res.Stats), int64(res.Rounds))
		}
	}
	probe := func(net *Network, rate float64) func(t *testing.T) []int64 {
		return func(t *testing.T) []int64 {
			ps, err := LatencyProbe(net, 3, rate, 20, 60, []float64{0, 0.5, 0.9, 0.99, 1})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int64, len(ps))
			for i, p := range ps {
				out[i] = int64(p)
			}
			return out
		}
	}

	q2, q3 := nucleus.Hypercube(2), nucleus.Hypercube(3)
	simCompute := []struct {
		name string
		net  *Network
	}{
		{"HSN(3,Q3)", superNet(superipg.HSN(3, q3), 8)},
		{"SFN(3,Q3)", superNet(superipg.SFN(3, q3), 8)},
		{"ring-CN(3,Q3)", superNet(superipg.RingCN(3, q3), 8)},
		{"Q9/M=8", built(BuildHypercube(9, 3, 8))},
		{"torus24/M=16", built(BuildTorus2D(24, 4, 8))},
	}
	want := map[string]uint64{
		"random/HSN(3,Q3)/rate=0.1":       0x616543bc7e6486a9,
		"random/HSN(3,Q3)/rate=0.4":       0x6cb6dcc3b0291660,
		"random/HSN(3,Q3)/rate=1.5":       0xca0cd8e252104df,
		"random/SFN(3,Q3)/rate=0.1":       0xd35311574ce467f4,
		"random/SFN(3,Q3)/rate=0.4":       0xc6519a001faa3865,
		"random/SFN(3,Q3)/rate=1.5":       0x814a0ea08984644c,
		"random/ring-CN(3,Q3)/rate=0.1":   0xf643029e8ba62db5,
		"random/ring-CN(3,Q3)/rate=0.4":   0x388bd160e214b5f7,
		"random/ring-CN(3,Q3)/rate=1.5":   0x593ae9a123adf009,
		"random/Q9/M=8/rate=0.1":          0x730be6e6ba1e5c0c,
		"random/Q9/M=8/rate=0.4":          0x1f0121dfc9144330,
		"random/Q9/M=8/rate=1.5":          0x5e937ba5341799cc,
		"random/torus24/M=16/rate=0.1":    0xa425e0f6d3092855,
		"random/torus24/M=16/rate=0.4":    0xa47a0d0f7d096134,
		"random/torus24/M=16/rate=1.5":    0xde87efc51f8f9e15,
		"random/complete-CN(3,Q2)":        0xe724df262d7572fc,
		"random/HSN(3,Q2)/node/oblivious": 0x32ac74d5b535e62d,
		"random/HSN(3,Q2)/node/aware":     0x89fa80288721e198,
		"random/HSN(3,Q2)/link/oblivious": 0x34acab468a7f3f58,
		"random/HSN(3,Q2)/link/aware":     0x6e68682bf9a27755,
		"random/HSN(3,Q2)/chip/oblivious": 0x4b68f8a44c03f608,
		"random/HSN(3,Q2)/chip/aware":     0x812b5d10e489d0af,
		"te/HSN(3,Q2)":                    0x8a8d7da69c9be1f3,
		"te/HSN(3,Q2)/nodes/aware":        0x4f52d48c65e3072a,
		"transpose/Q8/M=4":                0x21b23dd90e1ea5f5,
		"te/Q5/single-port":               0xd0720cd3c5dd1f41,
		"probe/HSN(3,Q3)":                 0x6ba45ace72fc94f7,
		"probe/torus24/M=16":              0x2e7b6c249156a405,
	}
	var cases []simPinCase
	add := func(name string, run func(t *testing.T) []int64) {
		cases = append(cases, simPinCase{name: name, run: run, want: want[name]})
	}
	for _, c := range simCompute {
		for _, rate := range []float64{0.1, 0.4, 1.5} {
			add(fmt.Sprintf("random/%s/rate=%g", c.name, rate), random(c.net, 1, rate, 10, 40))
		}
	}
	add("random/complete-CN(3,Q2)", random(superNet(superipg.CompleteCN(3, q2), 8), 2, 0.4, 30, 60))

	hsn := superNet(superipg.HSN(3, q2), 8)
	for _, spec := range []fault.Spec{
		{Mode: fault.Nodes, Count: 4, Seed: 2},
		{Mode: fault.Links, Count: 10, Seed: 3},
		{Mode: fault.Chips, Count: 2, Seed: 1},
	} {
		for _, aware := range []bool{false, true} {
			routing := "oblivious"
			if aware {
				routing = "aware"
			}
			add(fmt.Sprintf("random/HSN(3,Q2)/%s/%s", spec.Mode, routing), random(degraded(hsn, spec, aware), 4, 0.4, 30, 60))
		}
	}
	nodeFaulted := degraded(hsn, fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 2}, true)
	add("te/HSN(3,Q2)", drain(func() (DrainResult, error) { return RunTotalExchange(hsn, 5, 1<<16) }))
	add("te/HSN(3,Q2)/nodes/aware", drain(func() (DrainResult, error) { return RunTotalExchange(nodeFaulted, 5, 1<<16) }))
	q8 := built(BuildHypercube(8, 2, 8))
	transpose, err := Transpose(8)
	if err != nil {
		t.Fatal(err)
	}
	add("transpose/Q8/M=4", drain(func() (DrainResult, error) { return RunPermutation(q8, 3, transpose, 10000) }))
	single := built(BuildHypercube(5, 1, 1e9))
	single.SinglePort = true
	add("te/Q5/single-port", drain(func() (DrainResult, error) { return RunTotalExchange(single, 1, 100000) }))
	add("probe/HSN(3,Q3)", probe(simCompute[0].net, 0.4))
	add("probe/torus24/M=16", probe(simCompute[4].net, 0.4))
	return cases
}

// TestSimStatsPins pins the simulator's answers — every Stats field,
// drain round counts and latency percentiles — to digests captured before
// the round loop became activity-driven: no change to the simulator's
// internals may move a single simulated value.  Every case runs at
// GOMAXPROCS 1, 2 and 7, so the pins also hold across worker counts.
// The SFN, ring-CN and complete-CN digests were recaptured once, when
// TableRouter took minimalPort's tie-break; each equals the same run
// routed by the NextPort of the network's healthy FaultAwareRouter.
func TestSimStatsPins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := simPinCases(t)
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			for _, c := range cases {
				vals := c.run(t)
				if got := valuesDigest(vals); got != c.want {
					t.Errorf("%s digest = %#x, want %#x (values %v)", c.name, got, c.want, vals)
				}
			}
		})
	}
}
