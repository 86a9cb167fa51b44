package graph

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// distances is Distances without a deadline.
func distances(t *testing.T, g *Graph) (int, float64) {
	t.Helper()
	d, avg, err := Distances(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return d, avg
}

func TestParallelMatchesSerial(t *testing.T) {
	graphs := []*Graph{
		ring(17),
		complete(9),
		Power(complete(2), 7),
		CartesianProduct(ring(5), complete(4)),
	}
	for _, g := range graphs {
		dp, ap := distances(t, g)
		if ds := g.Diameter(); dp != ds {
			t.Errorf("diameter parallel %d != serial %d", dp, ds)
		}
		if as := g.AverageDistance(); ap != as {
			t.Errorf("avg distance parallel %v != serial %v", ap, as)
		}
	}
}

func TestParallelDisconnected(t *testing.T) {
	g := fromEdges(6, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5})
	if d, a := distances(t, g); d != -1 || a != -1 {
		t.Errorf("disconnected diameter/avg = %d/%v, want -1/-1", d, a)
	}
}

func TestParallelEmpty(t *testing.T) {
	g := fromEdges(0)
	if d, a := distances(t, g); d != 0 || a != 0 {
		t.Errorf("empty graph diameter/avg = %d/%v, want 0/0", d, a)
	}
}

func TestQuickParallelRandomGraphs(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rand.New(rand.NewSource(seed))
		// Random spanning structure plus noise edges for connectivity.
		var edges [][2]int
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{v, r.Intn(v)})
		}
		for e := 0; e < n/2; e++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		g := fromEdges(n, edges...)
		d, a := distances(t, g)
		return d == g.Diameter() && a == g.AverageDistance()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
