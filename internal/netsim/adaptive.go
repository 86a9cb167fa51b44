package netsim

// This file adds minimal adaptive routing: a router may consult the local
// output-queue lengths and pick any profitable port.  Minimal adaptive
// routing on hypercubes (any differing dimension, least-loaded first)
// spreads adversarial permutations over more links than deterministic
// dimension-order routing.

// AdaptiveRouter is an optional extension of Router: when the network's
// router implements it, the simulator passes the current local queue
// lengths to the routing decision.
type AdaptiveRouter interface {
	Router
	// NextPortAdaptive returns the forwarding port given qlen[p], the
	// number of packets currently waiting on port p at cur.  qlen is the
	// simulator's live row: read it, never retain or modify it.
	NextPortAdaptive(cur, dst int, qlen []int32) int
}

// AdaptiveHypercube routes minimally but adaptively on a hypercube whose
// port b flips bit b: among all differing dimensions it picks the one with
// the shortest local output queue (ties to the lowest dimension, keeping
// the choice deterministic).
type AdaptiveHypercube struct{ D int }

// NextPort implements Router (used when no queue information is
// available): dimension-order.
func (r AdaptiveHypercube) NextPort(cur, dst int) int {
	return HypercubeRouter{D: r.D}.NextPort(cur, dst)
}

// NextPortAdaptive implements AdaptiveRouter.
func (r AdaptiveHypercube) NextPortAdaptive(cur, dst int, qlen []int32) int {
	diff := cur ^ dst
	if diff == 0 {
		return -1
	}
	best, bestLen := -1, int32(0)
	for b := 0; b < r.D; b++ {
		if diff&(1<<b) == 0 {
			continue
		}
		l := qlen[b]
		if best < 0 || l < bestLen {
			best, bestLen = b, l
		}
	}
	return best
}

// routePort picks the forwarding port for a packet at node v, handing an
// adaptive router v's row of live queue lengths (no allocation).
func (s *Sim) routePort(v int, dst int32) int {
	if s.adaptive != nil {
		return s.adaptive.NextPortAdaptive(v, int(dst), s.qlen[s.arcOff[v]:s.arcOff[v+1]])
	}
	return s.Net.Router.NextPort(v, int(dst))
}
