package graph

import (
	"math"
	"testing"
)

func TestAlgebraicConnectivityKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want float64
	}{
		{"K6", complete(6), 6},                                // lambda2(K_n) = n
		{"C8", ring(8), 2 - 2*math.Cos(2*math.Pi/8)},          // 2-2cos(2pi/n)
		{"Q4", Power(complete(2), 4), 2},                      // lambda2(Q_d) = 2
		{"path-ish C12", ring(12), 2 - 2*math.Cos(math.Pi/6)}, // 2-2cos(2pi/12)
	}
	for _, c := range cases {
		got, err := c.g.AlgebraicConnectivity(1, 1e-12, 20000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-4*(1+c.want) {
			t.Errorf("%s: lambda2 = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpectralBisectionBound(t *testing.T) {
	// Hypercube: the spectral bound lambda2*N/4 = N/2 is exactly the
	// bisection width.
	q5 := Power(complete(2), 5)
	lb, err := q5.SpectralBisectionLowerBound(1)
	if err != nil {
		t.Fatal(err)
	}
	if lb < 15 || lb > 16 {
		t.Errorf("Q5 spectral bound = %d, want ~16 (exact width)", lb)
	}
	// Ring: bound must not exceed the true width 2.
	lbRing, err := ring(16).SpectralBisectionLowerBound(1)
	if err != nil {
		t.Fatal(err)
	}
	if lbRing < 1 || lbRing > 2 {
		t.Errorf("C16 spectral bound = %d, want 1..2", lbRing)
	}
}

func TestAlgebraicConnectivityEdgeCases(t *testing.T) {
	if _, err := fromEdges(1).AlgebraicConnectivity(1, 1e-9, 100); err == nil {
		t.Error("single vertex should error")
	}
	// Disconnected: lambda2 = 0.
	g := fromEdges(4, [2]int{0, 1}, [2]int{2, 3})
	got, err := g.AlgebraicConnectivity(1, 1e-12, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-6 {
		t.Errorf("disconnected lambda2 = %v, want ~0", got)
	}
	// Edgeless graph.
	if l2, err := fromEdges(3).AlgebraicConnectivity(1, 1e-9, 10); err != nil || l2 != 0 {
		t.Errorf("edgeless lambda2 = %v, %v", l2, err)
	}
}
