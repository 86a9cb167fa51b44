package netsim

//lint:file-ignore ctxflow hot-spot runs are CLI experiment drivers bounded by checkNodeCount and explicit round counts; the serving path only invokes the ...Ctx runners, which poll ctx per round

import (
	"fmt"
	"math/rand"
)

// This file adds the adversarial and skewed traffic patterns used beyond
// uniform random routing: bit-complement (every packet crosses the
// bisection), hot-spot (a fraction of traffic converges on one node), and
// a latency-distribution probe.

// BitComplement returns the permutation sending every address to its
// bitwise complement — the canonical bisection-stressing pattern (all
// packets cross any balanced address cut).
func BitComplement(logN int) []int32 {
	n := 1 << logN
	if err := checkNodeCount(n); err != nil {
		panic("netsim.BitComplement: " + err.Error())
	}
	perm := make([]int32, n)
	mask := int32(n - 1)
	for v := int32(0); v < int32(n); v++ {
		perm[v] = v ^ mask
	}
	return perm
}

// RunHotSpot injects uniform traffic, but each packet targets the hot node
// with probability hotFrac (Pfister-Norton hot-spot model).  Returns the
// measured stats over the last `measure` rounds.
func RunHotSpot(net *Network, seed int64, rate, hotFrac float64, hot int32, warmup, measure int) (RandomResult, error) {
	if hotFrac < 0 || hotFrac > 1 {
		return RandomResult{}, fmt.Errorf("netsim: hotFrac %v out of [0,1]", hotFrac)
	}
	if int(hot) < 0 || int(hot) >= net.N {
		return RandomResult{}, fmt.Errorf("netsim: hot node %d out of range", hot)
	}
	if err := checkNodeCount(net.N); err != nil {
		return RandomResult{}, err
	}
	s, err := New(net, seed)
	if err != nil {
		return RandomResult{}, err
	}
	n := int32(net.N)
	s.SetInjector(func(u int, _ int32) {
		rng := &s.rngs[u]
		if rng.float64() >= rate {
			return
		}
		if rng.float64() < hotFrac {
			s.Emit(u, hot)
			return
		}
		s.Emit(u, pickOther(rng, n, int32(u)))
	})
	for i := 0; i < warmup; i++ {
		if _, err := s.Step(); err != nil {
			return RandomResult{}, err
		}
	}
	s.ResetStats()
	before := s.InFlight()
	for i := 0; i < measure; i++ {
		if _, err := s.Step(); err != nil {
			return RandomResult{}, err
		}
	}
	st := s.Stats()
	res := RandomResult{
		Rate:     rate,
		Stats:    st,
		Accepted: float64(st.Delivered) / float64(net.N) / float64(measure),
		Latency:  st.AvgLatency(),
	}
	res.Saturated = float64(st.InFlight-before) > 0.2*float64(st.Injected)
	return res, nil
}

// LatencyProbe runs uniform traffic with per-packet latency histograms
// enabled and returns the requested percentiles (e.g. 0.5, 0.95, 0.99) of
// delivery latency over the measured window.
func LatencyProbe(net *Network, seed int64, rate float64, warmup, measure int, percentiles []float64) ([]int, error) {
	if err := checkNodeCount(net.N); err != nil {
		return nil, err
	}
	s, err := New(net, seed)
	if err != nil {
		return nil, err
	}
	s.EnableLatencyHistogram(4 * (warmup + measure))
	n := int32(net.N)
	s.SetInjector(func(u int, _ int32) {
		rng := &s.rngs[u]
		if rng.float64() < rate {
			s.Emit(u, pickOther(rng, n, int32(u)))
		}
	})
	for i := 0; i < warmup; i++ {
		if _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	s.ResetStats()
	for i := 0; i < measure; i++ {
		if _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.LatencyPercentiles(percentiles)
}

// RandomPermutation returns a uniformly random fixed permutation workload
// (derangement not enforced; self-mappings send nothing).
func RandomPermutation(r *rand.Rand, n int) []int32 {
	if err := checkNodeCount(n); err != nil {
		panic("netsim.RandomPermutation: " + err.Error())
	}
	p := r.Perm(n)
	out := make([]int32, n)
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}
