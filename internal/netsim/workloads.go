package netsim

import (
	"context"
	"fmt"
	"math"
)

// This file drives the paper's communication-intensive workloads: random
// uniform routing (Section 4's throughput comparisons), total exchange
// (Corollary 3.11 and the Section 4.1 off-chip-transmission claims), and
// permutation traffic such as matrix transposition.
//
// Every runner has a context-aware variant (the ...Ctx functions) used by
// the serving layer: the round loop checks the context once per simulated
// round — a round makes at most one injector call per node and handles
// each packet in flight once, so cancellation is observed after that much
// work — and returns the context's error with the partial round count.

// RandomResult reports a random-routing run.
type RandomResult struct {
	Rate      float64 // offered load, packets/node/round
	Stats     Stats
	Accepted  float64 // delivered packets/node/round over the measured phase
	Latency   float64
	Saturated bool // queues kept growing (delivered << injected)
}

// RunRandomUniform injects Bernoulli traffic at the given rate with
// uniformly random destinations for warmup+measure rounds, measuring over
// the final `measure` rounds.
func RunRandomUniform(net *Network, seed int64, rate float64, warmup, measure int) (RandomResult, error) {
	return RunRandomUniformCtx(context.Background(), net, seed, rate, warmup, measure)
}

// RunRandomUniformCtx is RunRandomUniform under a context deadline,
// checked once per simulated round.  A non-finite rate is an error: the
// injector emits floor(rate) packets per node within one round, where ctx
// is never polled.
func RunRandomUniformCtx(ctx context.Context, net *Network, seed int64, rate float64, warmup, measure int) (RandomResult, error) {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return RandomResult{}, fmt.Errorf("netsim: injection rate %v is not finite", rate)
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
		// Bernoulli or multi-packet injection for rate > 1.
		r := rate
		for r >= 1 {
			s.Emit(u, pickOther(rng, n, int32(u)))
			r--
		}
		if r > 0 && rng.float64() < r {
			s.Emit(u, pickOther(rng, n, int32(u)))
		}
	})
	for i := 0; i < warmup; i++ {
		if err := ctx.Err(); err != nil {
			return RandomResult{}, err
		}
		if _, err := s.Step(); err != nil {
			return RandomResult{}, err
		}
	}
	s.ResetStats()
	inFlightBefore := s.InFlight()
	for i := 0; i < measure; i++ {
		if err := ctx.Err(); err != nil {
			return RandomResult{}, err
		}
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
	// Saturation heuristic: backlog grew by more than 20% of injections.
	growth := st.InFlight - inFlightBefore
	res.Saturated = float64(growth) > 0.2*float64(st.Injected)
	return res, nil
}

// pickOther draws a destination uniformly from the n-1 nodes other than
// self.
func pickOther(rng *stream, n, self int32) int32 {
	//lint:ignore indextrunc intn(n-1) < n-1, an int32
	d := int32(rng.intn(int(n - 1)))
	if d >= self {
		d++
	}
	return d
}

// SaturationThroughput sweeps the injection rate upward until the network
// saturates and returns the largest sustained rate found, with the sweep
// trace.  Rates are multiples of step up to max.
func SaturationThroughput(net *Network, seed int64, step, max float64, warmup, measure int) (float64, []RandomResult, error) {
	var trace []RandomResult
	best := 0.0
	for rate := step; rate <= max+1e-9; rate += step {
		res, err := RunRandomUniform(net, seed, rate, warmup, measure)
		if err != nil {
			return 0, trace, err
		}
		trace = append(trace, res)
		if !res.Saturated {
			best = res.Accepted
		} else {
			break
		}
	}
	return best, trace, nil
}

// DrainResult reports a batch workload run to completion.
type DrainResult struct {
	Rounds int
	Stats
}

// runToCompletion steps until every packet is accounted for (delivered,
// or — on a faulty network — dropped), maxRounds is hit, or ctx is
// cancelled (checked once per round).
func runToCompletion(ctx context.Context, s *Sim, total int64, maxRounds int) (DrainResult, error) {
	for r := 0; r < maxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return DrainResult{Rounds: r, Stats: s.Stats()}, err
		}
		if _, err := s.Step(); err != nil {
			return DrainResult{}, err
		}
		st := s.Stats()
		if st.Delivered+st.Dropped >= total {
			return DrainResult{Rounds: r + 1, Stats: st}, nil
		}
	}
	st := s.Stats()
	return DrainResult{Rounds: maxRounds, Stats: st},
		fmt.Errorf("netsim: %s: %d of %d packets undelivered after %d rounds",
			s.Net.Name, total-st.Delivered, total, maxRounds)
}

// RunPermutation sends one packet from every node u to perm[u] (nodes with
// perm[u] == u send nothing) and drains.
func RunPermutation(net *Network, seed int64, perm []int32, maxRounds int) (DrainResult, error) {
	return RunPermutationCtx(context.Background(), net, seed, perm, maxRounds)
}

// RunPermutationCtx is RunPermutation under a context deadline, checked
// once per simulated round.
func RunPermutationCtx(ctx context.Context, net *Network, seed int64, perm []int32, maxRounds int) (DrainResult, error) {
	if len(perm) != net.N {
		return DrainResult{}, fmt.Errorf("netsim: permutation length %d != %d", len(perm), net.N)
	}
	s, err := New(net, seed)
	if err != nil {
		return DrainResult{}, err
	}
	var total int64
	for u, d := range perm {
		if u&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return DrainResult{}, err
			}
		}
		if int(d) == u {
			continue
		}
		if err := s.Enqueue(u, d); err != nil {
			return DrainResult{}, err
		}
		total++
	}
	return runToCompletion(ctx, s, total, maxRounds)
}

// Transpose returns the matrix-transposition permutation on 2^(2h) nodes:
// node (r, c) sends to (c, r), i.e. the address halves are swapped.
func Transpose(logN int) ([]int32, error) {
	if logN%2 != 0 {
		return nil, fmt.Errorf("netsim: transpose needs an even number of address bits, got %d", logN)
	}
	h := logN / 2
	n := 1 << logN
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	mask := int32(1<<h - 1)
	perm := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		perm[v] = (v&mask)<<h | v>>h
	}
	return perm, nil
}

// BitReversePerm returns the bit-reversal permutation, the canonical FFT
// data rearrangement.
func BitReversePerm(logN int) []int32 {
	n := 1 << logN
	if err := checkNodeCount(n); err != nil {
		panic("netsim.BitReversePerm: " + err.Error())
	}
	perm := make([]int32, n)
	for v := 0; v < n; v++ {
		r := 0
		for b := 0; b < logN; b++ {
			r = r<<1 | (v>>b)&1
		}
		perm[v] = int32(r)
	}
	return perm
}

// RunTotalExchange has every node send one personalized packet to every
// other node, injected in waves to bound memory, and drains.  It returns
// the completion time and the off-chip transmission census of Section 4.1.
func RunTotalExchange(net *Network, seed int64, maxRounds int) (DrainResult, error) {
	return RunTotalExchangeCtx(context.Background(), net, seed, maxRounds)
}

// RunTotalExchangeCtx is RunTotalExchange under a context deadline,
// checked once per simulated round.
func RunTotalExchangeCtx(ctx context.Context, net *Network, seed int64, maxRounds int) (DrainResult, error) {
	if err := checkNodeCount(net.N); err != nil {
		return DrainResult{}, err
	}
	s, err := New(net, seed)
	if err != nil {
		return DrainResult{}, err
	}
	n := int32(net.N)
	total := int64(net.N) * int64(net.N-1)
	// Wave injection: at round r, node u sends to u+r+1 mod N.  This is the
	// standard staggered total exchange; every (src,dst) pair occurs once.
	s.SetInjector(func(u int, round int32) {
		if round <= n-1 {
			s.Emit(u, (int32(u)+round)%n)
		}
	})
	res, err := runToCompletion(ctx, s, total, maxRounds)
	if err != nil {
		return res, err
	}
	return res, nil
}

// TotalExchangeOffChipLowerBound returns the analytic count of off-chip
// transmissions a total exchange needs: sum over ordered pairs of the
// intercluster distance, i.e. N^2 times the average intercluster distance.
func TotalExchangeOffChipLowerBound(nNodes int, avgIC float64) float64 {
	return float64(nNodes) * float64(nNodes) * avgIC
}
