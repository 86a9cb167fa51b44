package ipg_test

import (
	"context"
	"fmt"

	"ipg"
)

// ExampleBuild reproduces the worked IPG from Section 2 of the paper: the
// seed 123321 and three permutation generators yield a 36-node graph.
func ExampleBuild() {
	g := ipg.MustBuild(ipg.Spec{
		Name: "section-2",
		Seed: ipg.MustParseLabel("123321"),
		Gens: ipg.GenSet{
			ipg.Gen("pi1", ipg.FromImage(2, 1, 3, 4, 5, 6)),
			ipg.Gen("pi2", ipg.FromImage(3, 2, 1, 4, 5, 6)),
			ipg.Gen("pi3", ipg.FromImage(4, 5, 6, 1, 2, 3)),
		},
	})
	fmt.Println(g.N(), "nodes")
	for gi := 0; gi < g.NumGens(); gi++ {
		fmt.Println(g.Label(g.Neighbor(0, gi)))
	}
	// Output:
	// 36 nodes
	// 213321
	// 321321
	// 321123
}

// ExampleHSN builds the paper's flagship HSN(3,Q4) and reports the
// Section 4 intercluster metrics.
func ExampleHSN() {
	net := ipg.HSN(3, ipg.HypercubeNucleus(4))
	g, err := net.Build()
	if err != nil {
		panic(err)
	}
	t, _ := net.InterclusterT()
	fmt.Println("nodes:", g.N())
	fmt.Println("chips:", g.N()/net.M())
	fmt.Println("intercluster diameter:", t)
	clusterOf, nc := net.Clusters(g)
	_, avg, _ := net.InterclusterDistances(context.Background(), g, clusterOf, nc)
	fmt.Println("avg intercluster distance:", avg)
	// Output:
	// nodes: 4096
	// chips: 256
	// intercluster diameter: 2
	// avg intercluster distance: 1.875
}

// ExampleBuildSchedule constructs and verifies the Figure 1b all-port
// emulation schedule.
func ExampleBuildSchedule() {
	s, err := ipg.BuildSchedule(ipg.HSN(5, ipg.HypercubeNucleus(3)))
	if err != nil {
		panic(err)
	}
	if err := s.Verify(); err != nil {
		panic(err)
	}
	_, avg := s.Utilization()
	fmt.Printf("steps: %d, average link utilization: %.1f%%\n", s.T, 100*avg)
	// Output:
	// steps: 6, average link utilization: 92.9%
}

// ExampleAllReduceSum runs a global sum on a cyclic network.
func ExampleAllReduceSum() {
	net := ipg.CompleteCN(2, ipg.HypercubeNucleus(2))
	g, err := net.Build()
	if err != nil {
		panic(err)
	}
	r, err := ipg.NewFloatRunner(net, g)
	if err != nil {
		panic(err)
	}
	vals := make([]float64, g.N())
	for i := range vals {
		vals[i] = 1
	}
	out, stats, err := ipg.AllReduceSum(r, vals)
	if err != nil {
		panic(err)
	}
	fmt.Println("sum at node 0:", out[0])
	fmt.Println("comm steps:", stats.CommSteps)
	// Output:
	// sum at node 0: 16
	// comm steps: 6
}

// ExampleRunExperiment reruns a paper experiment programmatically.
func ExampleRunExperiment() {
	res, err := ipg.RunExperiment("dim11", ipg.ScaleSmall)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ID, "passed:", res.Passed())
	// Output:
	// E3/dim11 passed: true
}
