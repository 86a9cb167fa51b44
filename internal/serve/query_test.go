package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ipg/internal/cluster"
)

// refQuery is the reference the one-pass decoder must match: r.URL.Query()
// (url.ParseQuery with its bad pairs dropped) read with url.Values.Get.
type refQuery struct {
	p    Params
	prov Provided
	bad  []string // the decode error of each bad family integer
	vals [numEndpointParams]string
}

func decodeRef(raw string) refQuery {
	v, _ := url.ParseQuery(raw)
	r := refQuery{p: Defaults()}
	if s := v.Get("net"); s != "" {
		r.p.Net = strings.ToLower(strings.TrimSpace(s))
	}
	for _, pn := range provNames {
		s := v.Get(pn.name)
		if s == "" {
			continue
		}
		if pn.bit == ProvNucleus {
			r.p.Nucleus = strings.ToLower(strings.TrimSpace(s))
		} else if n, err := strconv.Atoi(s); err != nil {
			r.bad = append(r.bad, fmt.Sprintf("parameter %q: bad integer %q", pn.name, s))
			continue
		} else {
			*r.p.intParam(pn.bit) = n
		}
		r.prov |= pn.bit
	}
	for i, name := range endpointParams {
		r.vals[i] = v.Get(name)
	}
	return r
}

// checkAgainstRef fails t unless decodeQuery decodes raw as the reference
// does: the same endpoint values and, when no family integer is bad, the
// same Params, Provided set and validation verdict.  With bad integers it
// must report one of them (the first in query order, which url.Values
// cannot tell).
func checkAgainstRef(t *testing.T, raw string) {
	t.Helper()
	ref, q := decodeRef(raw), decodeQuery(raw)
	if q.vals != ref.vals {
		t.Fatalf("%q: endpoint values\n got %q\nwant %q", raw, q.vals, ref.vals)
	}
	if len(ref.bad) > 0 {
		if q.err == nil || !slices.Contains(ref.bad, q.err.Error()) {
			t.Fatalf("%q: decode error %v, want one of %q", raw, q.err, ref.bad)
		}
		return
	}
	if q.err != nil {
		t.Fatalf("%q: decode error %v, want none", raw, q.err)
	}
	if q.p != ref.p || q.prov != ref.prov {
		t.Fatalf("%q: decoded %+v %07b, want %+v %07b", raw, q.p, q.prov, ref.p, ref.prov)
	}
	got, want := fmt.Sprint(q.p.CheckProvided(q.prov)), fmt.Sprint(ref.p.CheckProvided(ref.prov))
	if got != want {
		t.Fatalf("%q: CheckProvided = %s, want %s", raw, got, want)
	}
}

// rawParityQueries cover first-wins repeats, empty values, valueless
// keys, unknown extras, every family's parameter shape, and the escapes,
// '+' spaces, ';' pairs and bad escapes that r.URL.Query() decodes or
// drops.
var rawParityQueries = []string{
	"",
	"net=hsn&l=3&nucleus=q4",
	"net=hcn&nucleus=fq3",
	"net=hypercube&dim=6&logm=2",
	"net=torus&k=8&side=2",
	"net=ccc&dim=4",
	"net=butterfly&dim=3&band=1",
	"net=hsn&nucleus=ghc:2,3,4",
	"net=HSN&l=03&nucleus=Q4",
	"net=hsn&l=3&l=4&nucleus=q2",        // repeated key: first wins
	"net=hsn&l=&l=4&nucleus=q2",         // empty first occurrence wins (stays default)
	"net=hsn&l&nucleus=q2",              // valueless key
	"net=&net=torus&k=4&side=2",         // empty net: family stays default
	"net=torus&net=ccc&k=4&side=2",      // repeated net: first wins
	"l=3&nucleus=q2",                    // family defaulted
	"net=bogus",                         // unknown family
	"net=hypercube&l=3",                 // l does not apply
	"net=hsn&l=-1&nucleus=q2",           // out of range
	"net=torus&k=999999999999999999999", // Atoi overflow
	"net=hsn&l=x&nucleus=q2",            // bad integer
	"net=hsn&L=9&l=2&nucleus=q2",        // keys are case-sensitive
	"src=3&dst=9&net=torus&k=4&side=2&workload=te&seed=5&src=4",
	"&&net=ccc&dim=3&&", // empty pairs
	"diameter=1&net=hypercube&dim=4&logm=1&faults=2&fmode=link&fseed=3&frouting=oblivious",
	"net=hsn&l=2&nucleus=%71%32",          // escaped value
	"n%65t=torus&k=4&side=2",              // escaped key
	"net=hsn&nucleus=+q2+&l=2",            // '+' is a space, then trimmed
	"net=torus;k=4&side=2",                // a ';' pair is dropped
	"net=hsn&l=%zz&l=2",                   // a bad escape drops its pair: l=2
	"%zz=1&net=ccc&dim=3",                 // bad escape in a key
	"workload=t%65&rate=0.5%2B&key=a%7Cb", // escaped endpoint values
	"src=%33&src=4&dst=1",                 // first decoded occurrence wins
	"src=%&src=4",                         // truncated escape: src=4
	"net=hsn&l=%2B2&nucleus=q2",           // "+2" is an integer
}

// TestParamsFromRawQueryParity pins the one-pass decoder to the
// reference on every query in the table, and pins the error of a query
// with two bad family integers to the first in query order.
func TestParamsFromRawQueryParity(t *testing.T) {
	for _, raw := range rawParityQueries {
		checkAgainstRef(t, raw)
	}
	for raw, want := range map[string]string{
		"net=hsn&dim=x&l=y":   `parameter "dim": bad integer "x"`,
		"net=hsn&%64im=x&l=y": `parameter "dim": bad integer "x"`,
	} {
		if _, _, err := ParamsFromRawQuery(raw); fmt.Sprint(err) != want {
			t.Errorf("%q: error %v, want %s", raw, err, want)
		}
	}
}

// percentAll percent-encodes every byte of s.
func percentAll(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(&b, "%%%02X", s[i])
	}
	return b.String()
}

// escapeQuery returns the escaped form of an escape-free query: every
// byte of every key and value percent-encoded, and net and nucleus values
// padded with '+', which decodes to a space the family decoder trims.
func escapeQuery(raw string) string {
	pairs := strings.Split(raw, "&")
	for i, pair := range pairs {
		key, val, _ := strings.Cut(pair, "=")
		val = percentAll(val)
		if key == "net" || key == "nucleus" {
			val = "+" + val + "+"
		}
		pairs[i] = percentAll(key) + "=" + val
	}
	return strings.Join(pairs, "&")
}

// TestEscapedQueriesAnswerAlike sends each request in its plain and its
// escaped form and requires the same status, ETag and body, byte for
// byte.  The server runs in (single-replica) cluster mode so that
// /v1/cluster reads its key parameter.
func TestEscapedQueriesAnswerAlike(t *testing.T) {
	self := "http://127.0.0.1:1"
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 2, Cluster: cl})
	serve := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	for _, tc := range []struct {
		path, query string
		code        int
	}{
		{"/v1/build", "net=hsn&l=2&nucleus=q2", http.StatusOK},
		{"/v1/build", "net=torus&k=4&side=2", http.StatusOK},
		{"/v1/metrics", "net=hsn&l=2&nucleus=q2&diameter=1", http.StatusOK},
		{"/v1/metrics", "net=torus&k=4&side=2&diameter=1&faults=2&fmode=link&fseed=3", http.StatusOK},
		{"/v1/route", "net=hsn&l=2&nucleus=q2&src=1&dst=14&multipath=2&faults=1&fmode=node&fseed=2", http.StatusOK},
		{"/v1/simulate", "net=torus&k=4&side=2&workload=random&rate=0.3&chipcap=4&seed=7&warmup=5&measure=20&faults=2&fmode=link&fseed=4&frouting=oblivious", http.StatusOK},
		{"/v1/simulate", "net=hsn&l=2&nucleus=q2&workload=te&seed=2", http.StatusOK},
		{"/v1/cluster", "key=hsn|l=2|nucleus=q2", http.StatusOK},
		{"/v1/route", "net=hsn&l=2&nucleus=q2&multipath=99", http.StatusBadRequest},
		{"/v1/simulate", "net=torus&k=4&side=2&rate=fast", http.StatusBadRequest},
		{"/v1/build", "net=hsn&l=x&nucleus=q2", http.StatusBadRequest},
	} {
		plain := tc.path + "?" + tc.query
		escaped := tc.path + "?" + escapeQuery(tc.query)
		serve(plain) // prime the cache, so /v1/build answers cached=true twice
		a, b := serve(plain), serve(escaped)
		if a.Code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", plain, a.Code, tc.code, a.Body)
			continue
		}
		if b.Code != a.Code || b.Header().Get("Etag") != a.Header().Get("Etag") {
			t.Errorf("%s: status %d etag %q, plain form %d %q", escaped, b.Code, b.Header().Get("Etag"), a.Code, a.Header().Get("Etag"))
		}
		// build_ms is the wall time of the cache probe; it is the one
		// field not decided by the query.
		ab, bb := a.Body.Bytes(), b.Body.Bytes()
		if tc.path == "/v1/build" && tc.code == http.StatusOK {
			ab = buildMillis.ReplaceAll(ab, []byte(`"build_ms":0`))
			bb = buildMillis.ReplaceAll(bb, []byte(`"build_ms":0`))
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: body differs from the plain form\n got %s\nwant %s", escaped, bb, ab)
		}
		if tc.path == "/v1/cluster" && !bytes.Contains(ab, []byte(`"key": "hsn|l=2|nucleus=q2"`)) {
			t.Errorf("%s: no key echo in %s", plain, ab)
		}
	}
}

// buildMillis matches /v1/build's wall-time field.
var buildMillis = regexp.MustCompile(`"build_ms":[0-9]+`)
