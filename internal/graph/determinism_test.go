package graph

import (
	"runtime"
	"testing"
)

// buildDeterministic returns a fixed connected graph: a ring over n
// vertices plus deterministic chords, so its metrics are nontrivial and
// identical across runs.
func buildDeterministic(n int) *Graph {
	return FromStream(n, func(edge func(u, v int)) {
		for v := 0; v < n; v++ {
			edge(v, (v+1)%n)
		}
		for v := 0; v < n; v += 7 {
			edge(v, (v*3+11)%n)
		}
	})
}

// TestParallelMetricsDeterministic checks that the source-parallel
// diameter and average-distance computations return identical values on a
// single worker and on many, and that both agree with the serial
// implementations.  The average is accumulated as an integer distance sum,
// so the result must be bit-identical, not merely close.
func TestParallelMetricsDeterministic(t *testing.T) {
	g := buildDeterministic(601)

	wantDiam := g.Diameter()
	wantAvg := g.AverageDistance()

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, workers := range []int{1, 2, prev, 2 * prev} {
		runtime.GOMAXPROCS(workers)
		d, a := distances(t, g)
		if d != wantDiam {
			t.Errorf("GOMAXPROCS=%d: parallel diameter = %d, want %d", workers, d, wantDiam)
		}
		if a != wantAvg {
			t.Errorf("GOMAXPROCS=%d: parallel avg distance = %v, want bit-identical %v", workers, a, wantAvg)
		}
	}
}

// TestParallelMetricsDisconnected checks the disconnected sentinel is
// stable across worker counts too.
func TestParallelMetricsDisconnected(t *testing.T) {
	g := fromEdges(10, [2]int{0, 1}, [2]int{2, 3})

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		if d, a := distances(t, g); d != -1 || a != -1 {
			t.Errorf("GOMAXPROCS=%d: parallel diameter/avg on disconnected graph = %d/%v, want -1/-1", workers, d, a)
		}
	}
}
