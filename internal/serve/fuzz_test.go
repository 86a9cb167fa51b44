package serve

import (
	"strings"
	"testing"
)

// FuzzParamsFromQuery feeds arbitrary query strings through the request
// parameter pipeline: decode, validate, canonicalize.  The one-pass
// decoder must agree with the url.ParseQuery reference on every input,
// nothing may panic, and any parameter set that validates must produce a
// non-empty, deterministic cache key rooted at its family name — the key
// is what the cache shards and singleflights on, so instability would
// split or alias cache entries.
func FuzzParamsFromQuery(f *testing.F) {
	for _, seed := range []string{
		"net=hsn&l=3&nucleus=q4",
		"net=hcn&nucleus=fq3",
		"net=ring-cn&l=3&nucleus=q2",
		"net=complete-cn&l=4&nucleus=k5",
		"net=sfn&l=3&nucleus=s3",
		"net=rcc&l=3&nucleus=c8",
		"net=hypercube&dim=6&logm=2",
		"net=torus&k=8&side=2",
		"net=ccc&dim=4",
		"net=butterfly&dim=3&band=1",
		"net=hsn&nucleus=ghc:2,3,4",
		"net=HSN&l=03&nucleus=Q4",    // case and zero padding normalize
		"net=hsn&l=3&l=4&nucleus=q2", // repeated key: first value wins
		"net=bogus",
		"net=hypercube&l=3", // l does not apply
		"net=hsn&l=-1&nucleus=q2",
		"net=torus&k=999999999999999999999",
		"l=3&nucleus=q2", // family defaulted
		"",
		"net=hsn&l=2147483647&nucleus=q30",
		"%zz=1",
		"net=hsn&nucleus=" + strings.Repeat("q", 4096),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		// Every input, well-formed or not, must decode as r.URL.Query()
		// reads it: the same Params, Provided set, endpoint values and
		// accept/reject decision.
		checkAgainstRef(t, raw)
		p, prov, err := ParamsFromRawQuery(raw)
		if err != nil || p.CheckProvided(prov) != nil {
			return // rejected inputs just need to not panic
		}
		key := p.Key()
		if key == "" {
			t.Fatalf("valid params %+v produced an empty cache key", p)
		}
		if !strings.HasPrefix(key, p.Net) {
			t.Fatalf("key %q not rooted at family %q", key, p.Net)
		}
		if again := p.Key(); again != key {
			t.Fatalf("key not deterministic: %q then %q", key, again)
		}
	})
}
