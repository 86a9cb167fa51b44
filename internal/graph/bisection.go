package graph

import (
	"fmt"
	"math/rand"
)

// This file implements bisection-width machinery.  Exact minimum bisection
// is NP-hard in general; the reproduction uses the structured partitions the
// paper itself analyses (provided by the topology packages) and validates
// them with a randomized greedy-swap refiner that searches for smaller
// bisections (an upper-bound sanity check).

// CutSize returns the number of edges crossing the 2-partition given by
// side (side[v] in {0,1}).
func (g *Graph) CutSize(side []int8) int {
	if len(side) != g.N() {
		panic("graph.CutSize: partition size mismatch")
	}
	cut := 0
	g.Edges(func(u, v int) {
		if side[u] != side[v] {
			cut++
		}
	})
	return cut
}

// IsBisection reports whether side splits the vertices into two parts whose
// sizes differ by at most one.
func IsBisection(side []int8) bool {
	n0 := 0
	for _, s := range side {
		if s == 0 {
			n0++
		}
	}
	n1 := len(side) - n0
	diff := n0 - n1
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1
}

// RandomBisection returns a uniformly random balanced partition.
func RandomBisection(r *rand.Rand, n int) []int8 {
	side := make([]int8, n)
	idx := r.Perm(n)
	for i, v := range idx {
		if i < n/2 {
			side[v] = 0
		} else {
			side[v] = 1
		}
	}
	return side
}

// RefineBisection improves a balanced partition by greedy pairwise swaps:
// repeatedly swap the pair (u in side 0, v in side 1) with the best combined
// gain until no improving swap exists or maxRounds passes complete.  It
// returns the refined partition and its cut size.  The input is not
// modified.
func (g *Graph) RefineBisection(start []int8, maxRounds int) ([]int8, int) {
	n := g.N()
	side := make([]int8, n)
	copy(side, start)

	// gain[v] = (external degree) - (internal degree): cut change if v moves.
	gain := make([]int, n)
	recompute := func() {
		for v := 0; v < n; v++ {
			ext, in := 0, 0
			for _, w := range g.csr.Row(v) {
				if side[w] != side[v] {
					ext++
				} else {
					in++
				}
			}
			gain[v] = ext - in
		}
	}
	recompute()
	cut := g.CutSize(side)

	for round := 0; round < maxRounds; round++ {
		improved := false
		// Find the best vertex on each side by gain.
		bestU, bestV := -1, -1
		for v := 0; v < n; v++ {
			if side[v] == 0 {
				if bestU < 0 || gain[v] > gain[bestU] {
					bestU = v
				}
			} else {
				if bestV < 0 || gain[v] > gain[bestV] {
					bestV = v
				}
			}
		}
		if bestU < 0 || bestV < 0 {
			break
		}
		delta := gain[bestU] + gain[bestV]
		if g.HasEdge(bestU, bestV) {
			delta -= 2
		}
		if delta > 0 {
			side[bestU], side[bestV] = 1, 0
			cut -= delta
			recompute()
			improved = true
		}
		if !improved {
			break
		}
	}
	return side, cut
}

// BestBisection runs the refiner from several random starts plus the given
// seeds and returns the smallest cut found.  It is an upper bound on the
// true bisection width.
func (g *Graph) BestBisection(r *rand.Rand, randomStarts, maxRounds int, seeds ...[]int8) ([]int8, int) {
	var bestSide []int8
	bestCut := -1
	try := func(start []int8) {
		side, cut := g.RefineBisection(start, maxRounds)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestSide = side
		}
	}
	for _, s := range seeds {
		if len(s) != g.N() {
			panic(fmt.Sprintf("graph.BestBisection: seed partition has %d entries, want %d", len(s), g.N()))
		}
		try(s)
	}
	for i := 0; i < randomStarts; i++ {
		try(RandomBisection(r, g.N()))
	}
	return bestSide, bestCut
}
