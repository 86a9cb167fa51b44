package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file computes a spectral lower bound on the bisection width: for
// any graph, W_B >= lambda2 * N / 4, where lambda2 is the algebraic
// connectivity (the second-smallest eigenvalue of the Laplacian).  The
// refiner in bisection.go gives upper bounds; together they certify the
// structured partitions the paper analyses (for the hypercube the spectral
// bound N/2 is exactly tight).

// lapApply computes y = L x for the graph Laplacian L = D - A.
func (g *Graph) lapApply(x, y []float64) {
	for v := 0; v < g.N(); v++ {
		row := g.csr.Row(v)
		sum := float64(len(row)) * x[v]
		for _, w := range row {
			sum -= x[w]
		}
		y[v] = sum
	}
}

// AlgebraicConnectivity estimates lambda2 of the Laplacian by power
// iteration on (c I - L) restricted to the space orthogonal to the
// constant vector, where c is the Gershgorin bound 2*maxDegree >=
// lambda_max(L).  The returned value is accurate to roughly tol
// (relative); iterations are capped.
func (g *Graph) AlgebraicConnectivity(seed int64, tol float64, maxIter int) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("graph: algebraic connectivity needs >= 2 vertices")
	}
	_, maxDeg, _ := g.DegreeStats()
	c := 2 * float64(maxDeg)
	if c == 0 {
		return 0, nil // no edges: disconnected, lambda2 = 0
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		mean := 0.0
		for _, t := range v {
			mean += t
		}
		mean /= float64(n)
		for i := range v {
			v[i] -= mean
		}
	}
	normalize := func(v []float64) float64 {
		s := 0.0
		for _, t := range v {
			s += t * t
		}
		s = math.Sqrt(s)
		if s > 0 {
			for i := range v {
				v[i] /= s
			}
		}
		return s
	}
	deflate(x)
	if normalize(x) == 0 {
		return 0, fmt.Errorf("graph: degenerate start vector")
	}
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		// y = (cI - L) x
		g.lapApply(x, y)
		for i := range y {
			y[i] = c*x[i] - y[i]
		}
		deflate(y)
		mu := normalize(y)
		x, y = y, x
		if iter > 8 && math.Abs(mu-prev) <= tol*math.Abs(mu) {
			prev = mu
			break
		}
		prev = mu
	}
	lambda2 := c - prev
	if lambda2 < 0 {
		lambda2 = 0
	}
	return lambda2, nil
}

// SpectralBisectionLowerBound returns ceil(lambda2 * N / 4), a certified
// lower bound on the bisection width (up to the power iteration's
// convergence; a small safety factor is applied to stay conservative).
func (g *Graph) SpectralBisectionLowerBound(seed int64) (int, error) {
	lambda2, err := g.AlgebraicConnectivity(seed, 1e-10, 4000)
	if err != nil {
		return 0, err
	}
	// The iteration converges to lambda2 from above in the deflated space;
	// shave 0.5% to stay on the safe side of the bound.
	bound := 0.995 * lambda2 * float64(g.N()) / 4
	return int(math.Ceil(bound - 1e-9)), nil
}
