package serve

import (
	"testing"
)

// TestParamsKeyGolden pins the canonical key strings for the eight golden
// families.  These exact strings are the cluster's unit of ownership: the
// consistent-hash ring places them, peers exchange them, and any drift
// here silently re-partitions a running cluster (every replica suddenly
// disagrees with its former self about what it owns).  If this test
// fails, the key format changed — treat that as a cluster protocol break,
// not a test to update casually.
func TestParamsKeyGolden(t *testing.T) {
	golden := []struct {
		query string
		key   string
	}{
		{"net=hsn&l=2&nucleus=q2", "hsn|l=2|nucleus=q2"},
		{"net=hsn&l=3&nucleus=q2", "hsn|l=3|nucleus=q2"},
		{"net=ring-cn&l=3&nucleus=q2", "ring-cn|l=3|nucleus=q2"},
		{"net=complete-cn&l=3&nucleus=q2", "complete-cn|l=3|nucleus=q2"},
		{"net=sfn&l=3&nucleus=q2", "sfn|l=3|nucleus=q2"},
		{"net=hypercube&dim=6&logm=2", "hypercube|dim=6|logm=2"},
		{"net=torus&k=8&side=2", "torus|k=8|side=2"},
		{"net=ccc&dim=4", "ccc|dim=4"},
	}
	for _, g := range golden {
		p, prov, err := ParamsFromRawQuery(g.query)
		if err != nil {
			t.Fatalf("%s: %v", g.query, err)
		}
		if err := p.CheckProvided(prov); err != nil {
			t.Fatalf("%s: %v", g.query, err)
		}
		if got := p.Key(); got != g.key {
			t.Errorf("Key(%s) = %q, want %q", g.query, got, g.key)
		}
	}
}

// TestParamsKeyCanonicalization checks the normalizations that make the
// key canonical: defaults and explicit values hash identically, stray
// defaults of inapplicable parameters never leak into the key, nucleus
// spelling is case/space-insensitive, and HCN's l is pinned at 2.
func TestParamsKeyCanonicalization(t *testing.T) {
	key := func(query string) string {
		t.Helper()
		p, _, err := ParamsFromRawQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		return p.Key()
	}

	// Bare hsn uses the defaults (l=3, nucleus=q2) and must collide with
	// the fully spelled-out request.
	if a, b := key("net=hsn"), key("net=hsn&l=3&nucleus=q2"); a != b {
		t.Errorf("default key %q != explicit key %q", a, b)
	}
	// hypercube ignores l and nucleus entirely; their defaults must not
	// appear in its key.
	if got := key("net=hypercube&dim=6&logm=2"); got != "hypercube|dim=6|logm=2" {
		t.Errorf("hypercube key = %q: inapplicable defaults leaked in", got)
	}
	// Nucleus spelling normalizes.
	if a, b := key("net=hsn&nucleus=Q2"), key("net=hsn&nucleus=q2"); a != b {
		t.Errorf("nucleus case changed the key: %q vs %q", a, b)
	}
	// HCN is HSN(2, G) by definition: l is not a parameter it consumes, so
	// no l appears in the key at all and the surrounding default cannot
	// perturb it.
	if a, b := key("net=hcn&nucleus=q2"), key("net=hcn&l=7&nucleus=q2"); a != "hcn|nucleus=q2" || a != b {
		t.Errorf("hcn keys = %q / %q, want both %q", a, b, "hcn|nucleus=q2")
	}
}
