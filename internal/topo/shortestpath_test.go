package topo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// walkPath is the route ShortestPath must reproduce, from a full BFS of
// src in dist: walk back from dst, each step to the first neighbor in row
// order one hop closer to src.  nil when dst is unreachable.
func walkPath(s Source, dist []int32, dst int) []int {
	if dist[dst] < 0 {
		return nil
	}
	path := make([]int, dist[dst]+1)
	path[len(path)-1] = dst
	var nbuf []int32
	for d := len(path) - 1; d > 0; d-- {
		nbuf = s.NeighborsInto(path[d], nbuf)
		for _, v := range nbuf {
			if int(dist[v]) == d-1 {
				path[d-1] = int(v)
				break
			}
		}
	}
	return path
}

// randomGraph is a sparse random graph on n vertices with about m edges:
// disconnected at low m, rich in equal-length paths (and so in dead ends
// for the walk's depth-first search) at higher m.
func randomGraph(t *testing.T, n, m int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	c, err := Build(n, func(edge func(u, v int)) {
		for _, e := range edges {
			edge(e[0], e[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShortestPathMatchesWalk compares the bidirectional kernel with the
// full-BFS walk on every ordered pair — src == dst and unreachable pairs
// included — of rings, codec sources and their CSRs, and random graphs
// from forests to dense ones, reusing one scratch per graph.
func TestShortestPathMatchesWalk(t *testing.T) {
	hc, err := NewHypercubeCodec(6)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTorusCodec(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCCCCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewButterflyCodec(3)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]Source{
		"ring(9)":  ring(t, 9),
		"ring(10)": ring(t, 10),
	}
	for name, cd := range map[string]Codec{"Q6": hc, "7-ary 2-cube": tc, "CCC(4)": cc, "WBF(3)": bc} {
		im := NewImplicit(cd)
		sources[name+"/implicit"] = im
		sources[name+"/csr"] = csrOf(t, im)
	}
	for _, m := range []int{40, 70, 100, 160, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			sources[fmt.Sprintf("random(80,%d,%d)", m, seed)] = randomGraph(t, 80, m, seed)
		}
	}
	ctx := context.Background()
	for name, s := range sources {
		n := s.N()
		dist := make([]int32, n)
		sc := GetScratch(n)
		for src := 0; src < n; src++ {
			BFSSourceInto(s, src, dist, nil, nil)
			for dst := 0; dst < n; dst++ {
				want := walkPath(s, dist, dst)
				got, err := ShortestPath(ctx, s, src, dst, sc)
				if want == nil {
					if !errors.Is(err, ErrNoPath) || got != nil {
						t.Fatalf("%s: %d -> %d unreachable, got %v, %v", name, src, dst, got, err)
					}
					continue
				}
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: %d -> %d = %v, %v; the walk gives %v", name, src, dst, got, err, want)
				}
			}
		}
		PutScratch(sc)
	}
}

// csrOf materializes s's rows as a CSR over the same numbering.
func csrOf(t *testing.T, s Source) *CSR {
	t.Helper()
	c, err := Build(s.N(), func(edge func(u, v int)) {
		var buf []int32
		for v := 0; v < s.N(); v++ {
			buf = s.NeighborsInto(v, buf)
			for _, u := range buf {
				edge(v, int(u))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShortestPathCancelled: a cancelled context stops the search before
// its first level, with no path.
func TestShortestPathCancelled(t *testing.T) {
	hc, err := NewHypercubeCodec(10)
	if err != nil {
		t.Fatal(err)
	}
	s := NewImplicit(hc)
	sc := GetScratch(s.N())
	defer PutScratch(sc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if path, err := ShortestPath(ctx, s, 0, s.N()-1, sc); !errors.Is(err, context.Canceled) || path != nil {
		t.Fatalf("cancelled search = %v, %v; want no path and context.Canceled", path, err)
	}
}

// TestShortestPathAllocs: with a pooled scratch the returned path is the
// only allocation, on the arena and on a codec.
func TestShortestPathAllocs(t *testing.T) {
	hc, err := NewHypercubeCodec(10)
	if err != nil {
		t.Fatal(err)
	}
	im := NewImplicit(hc)
	ctx := context.Background()
	for name, s := range map[string]Source{"csr": csrOf(t, im), "implicit": im} {
		sc := GetScratch(s.N())
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ShortestPath(ctx, s, 0, s.N()-1, sc); err != nil {
				t.Fatal(err)
			}
		})
		PutScratch(sc)
		if allocs != 1 {
			t.Errorf("%s: %v allocations per search, want 1 (the path)", name, allocs)
		}
	}
}
