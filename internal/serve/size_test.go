package serve

import (
	"context"
	"testing"
)

// TestSizeBytesPins pins the bytes each golden family's artifact charges
// to the cache (SizeBytes): seven of the root package's eight CSR
// goldens, all but WBF(3), which serve does not build (it has an odd
// number of level bands, which the butterfly's chip bisection rejects),
// the rest of the serving goldens and HSN(3,Q4).  A materialized
// super-IPG charges its per-generator adjacency, undirected CSR and orbit
// representatives, and no labels; a change to that accounting must edit
// this table.
func TestSizeBytesPins(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  int64
	}{
		{"net=hsn&l=2&nucleus=q2", 452},
		{"net=hsn&l=3&nucleus=q2", 2244},
		{"net=ring-cn&l=3&nucleus=q2", 2340},
		{"net=complete-cn&l=3&nucleus=q2", 2340},
		{"net=sfn&l=3&nucleus=q2", 2244},
		{"net=hypercube&dim=6&logm=2", 2052},
		{"net=torus&k=8&side=2", 1540},
		{"net=ccc&dim=3", 484},
		{"net=ccc&dim=4", 1284},
		{"net=hsn&l=3&nucleus=q4", 211972},
	} {
		p, _, err := ParamsFromRawQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		a, err := BuildArtifact(context.Background(), p, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if got := a.SizeBytes(); got != tc.want {
			t.Errorf("%s: SizeBytes = %d, want %d", a.Name, got, tc.want)
		}
	}
}
