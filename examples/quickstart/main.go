// Quickstart: build the paper's worked-example network HSN(3,Q4), inspect
// its structure, verify the Section 2 IPG example, and run a parallel FFT
// on it through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math/cmplx"

	"ipg"
)

func main() {
	// 1. The Section 2 IPG example: seed 123321 with three generators
	// yields a 36-node graph.
	spec := ipg.Spec{
		Name: "section-2-example",
		Seed: ipg.MustParseLabel("123321"),
		Gens: ipg.GenSet{
			ipg.Gen("pi1", ipg.FromImage(2, 1, 3, 4, 5, 6)),
			ipg.Gen("pi2", ipg.FromImage(3, 2, 1, 4, 5, 6)),
			ipg.Gen("pi3", ipg.FromImage(4, 5, 6, 1, 2, 3)),
		},
	}
	example, err := ipg.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Section 2 example IPG: %d nodes (paper says 36)\n", example.N())
	fmt.Printf("  seed %s neighbors:", example.Label(0))
	for gi := 0; gi < example.NumGens(); gi++ {
		fmt.Printf(" %s", example.Label(example.Neighbor(0, gi)))
	}
	fmt.Println()

	// 2. The flagship super-IPG: HSN(3,Q4), 4096 nodes in 256 chips of 16.
	net := ipg.HSN(3, ipg.HypercubeNucleus(4))
	g, err := net.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s: %d nodes, %d chips of %d\n", net.Name(), g.N(), g.N()/net.M(), net.M())
	t, err := net.InterclusterT()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  intercluster diameter: %d (= l-1, Corollary 4.2)\n", t)
	clusterOf, nc := net.Clusters(g)
	_, icAvg, err := net.InterclusterDistances(context.Background(), g, clusterOf, nc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  avg intercluster distance: %.4g (hypercube with same chips: 4)\n", icAvg)

	// 3. A 4096-point FFT, executed with the paper's descend algorithm.
	r, err := ipg.NewFFTRunner(net, g)
	if err != nil {
		log.Fatal(err)
	}
	x := make([]complex128, g.N())
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*3.141592653589793*7*float64(i)/float64(len(x))))
	}
	spectrum, stats, err := ipg.FFT(r, x, false)
	if err != nil {
		log.Fatal(err)
	}
	peak, peakAt := 0.0, -1
	for k, v := range spectrum {
		if m := cmplx.Abs(v); m > peak {
			peak, peakAt = m, k
		}
	}
	fmt.Printf("\nFFT of a pure 7-cycle tone: peak at bin %d (want 7), magnitude %.1f (want %d)\n",
		peakAt, peak, len(x))
	fmt.Printf("  communication steps: %d = l(k+2)-2 (Corollary 3.6); hypercube would use %d\n",
		stats.CommSteps, r.LogN())
	fmt.Printf("  off-chip (super-generator) steps: %d vs hypercube's %d off-chip dimensions\n",
		stats.SuperSteps, r.LogN()-4)
}
