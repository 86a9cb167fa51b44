package graph

import (
	"context"
	"errors"
	"testing"
	"time"
)

// ringGraph builds a cycle on n vertices.
func ringGraph(n int) *Graph {
	return FromStream(n, func(edge func(u, v int)) {
		for v := 0; v < n; v++ {
			edge(v, (v+1)%n)
		}
	})
}

func TestDiameterParallelCtxMatchesSerial(t *testing.T) {
	g := ringGraph(64)
	d, avg, err := Distances(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Diameter(); d != want {
		t.Fatalf("Distances diameter = %d, want %d", d, want)
	}
	if want := g.AverageDistance(); avg != want {
		t.Fatalf("Distances avg = %v, want %v", avg, want)
	}
}

func TestDiameterParallelCtxCancelled(t *testing.T) {
	g := ringGraph(4096) // big enough that the source loop is still running
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Distances(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A vertex-transitive source takes the single-BFS shortcut, which must
	// honour an already-cancelled context too.
	g.MarkVertexTransitive()
	if _, _, err := Distances(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("vertex-transitive err = %v, want context.Canceled", err)
	}
}

func TestDiameterParallelCtxDeadlinePrompt(t *testing.T) {
	g := ringGraph(1 << 15) // ring: all-pairs BFS is O(n^2), slow enough to trip a tiny deadline
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := Distances(ctx, g)
	if err == nil {
		t.Skip("machine finished the all-pairs BFS inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Cancellation is checked between sources, so the return must be far
	// faster than the full computation (seconds on this size).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}
