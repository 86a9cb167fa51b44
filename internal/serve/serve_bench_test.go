package serve

import (
	"context"
	"testing"
)

// BenchmarkWarmServingPaths measures the per-request cost of the two hot
// read paths after an artifact is cached: the memoized /v1/metrics body
// and the pooled-scratch route search behind /v1/route.  Run with
// -benchmem; the allocation counts here are the "zero-alloc serving"
// evidence: a route allocates its response slice, and on the super-IPG
// codecs every generated row allocates as well.
//
// The route cases are warm-read's HSN(3,Q4) arena and four of the
// codec-served keys of perfbench's cold-sweep workload.  Op i routes
// seeded pair i mod 64, so runs of -benchtime 64x (or a multiple) do the
// same work on any commit.
func BenchmarkWarmServingPaths(b *testing.B) {
	ctx := context.Background()
	p := Params{Net: "hsn", L: 3, Nucleus: "q4"}
	a, err := BuildArtifact(ctx, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("metricsJSON", func(b *testing.B) {
		if _, err := a.MetricsJSON(ctx, false); err != nil {
			b.Fatal(err) // prime the memo so the loop measures the warm path
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.MetricsJSON(ctx, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name, query  string
		implicitOver int
	}{
		{"HSN(3,Q4)", "net=hsn&l=3&nucleus=q4", 0},
		{"SFN(5,Q3)", "net=sfn&l=5&nucleus=q3", 4096},
		{"HSN(7,Q2)", "net=hsn&l=7&nucleus=q2", 4096},
		{"Q14", "net=hypercube&dim=14&logm=4", 4096},
		{"128-ary 2-cube", "net=torus&k=128&side=4", 4096},
	} {
		p, _, err := ParamsFromRawQuery(c.query)
		if err != nil {
			b.Fatal(err)
		}
		a, err := BuildArtifactThreshold(ctx, p, 0, c.implicitOver)
		if err != nil {
			b.Fatal(err)
		}
		var pairs [64][2]int
		for i := range pairs {
			pairs[i] = [2]int{benchEnd(a.N, 2*i), benchEnd(a.N, 2*i+1)}
		}
		b.Run("route/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				if _, err := shortestPath(ctx, a, pr[0], pr[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchEnd is the i-th seeded route endpoint on n vertices (splitmix64).
func benchEnd(n, i int) int {
	x := uint64(i+1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % uint64(n))
}
