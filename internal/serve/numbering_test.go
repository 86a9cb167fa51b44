package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ipg/internal/netsim"
)

// serveBody answers path in-process and returns the status and body.
func serveBody(srv *Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// decodeFields decodes a JSON object body into a flat map from dotted
// field path to value.
func decodeFields(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	out := map[string]any{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if m, ok := v.(map[string]any); ok {
			for k, x := range m {
				walk(prefix+k+".", x)
			}
			return
		}
		out[prefix[:len(prefix)-1]] = v
	}
	walk("", doc)
	return out
}

// representationFields are the fields in which a materialized and an
// implicit artifact of one instance may differ.
var representationFields = map[string]bool{
	"materialized": true, "representation": true, "size_bytes": true, "bytes_per_vertex": true,
	"build_ms": true, "cached": true, "links": true,
}

// TestOneNumberingAcrossRepresentations asks a server at the default
// implicit threshold, which materializes these super-IPGs, and one with
// ImplicitThreshold 1, which serves them implicitly, the same questions:
// /v1/route for every ordered pair of the small instances and for 500
// seeded pairs of the 4,096-node ones must give byte-identical bodies,
// and /v1/build and /v1/metrics must agree on every field both report
// apart from the representation fields.  Node ids are addresses in both.
func TestOneNumberingAcrossRepresentations(t *testing.T) {
	csr := NewServer(Config{Workers: 2})
	impl := NewServer(Config{Workers: 2, ImplicitThreshold: 1})
	for _, tc := range []struct {
		query string
		pairs int // 0: every ordered pair
	}{
		{"net=hsn&l=2&nucleus=q2", 0},
		{"net=hsn&l=3&nucleus=q2", 0},
		{"net=ring-cn&l=3&nucleus=q2", 0},
		{"net=complete-cn&l=3&nucleus=q2", 0},
		{"net=sfn&l=3&nucleus=q2", 0},
		{"net=hsn&l=3&nucleus=q4", 500},
		{"net=sfn&l=2&nucleus=q4", 500},
	} {
		t.Run(tc.query, func(t *testing.T) {
			for _, ep := range []string{"/v1/build?", "/v1/metrics?"} {
				fields := map[string]map[string]any{}
				for name, srv := range map[string]*Server{"csr": csr, "implicit": impl} {
					code, body := serveBody(srv, ep+tc.query)
					if code != http.StatusOK {
						t.Fatalf("%s%s on the %s server: status %d: %s", ep, tc.query, name, code, body)
					}
					fields[name] = decodeFields(t, body)
				}
				if got := fields["implicit"]["representation"]; got != RepImplicit {
					t.Fatalf("%s%s: the low-threshold server answers representation %v", ep, tc.query, got)
				}
				for k, v := range fields["csr"] {
					if w, ok := fields["implicit"][k]; ok && !representationFields[k] && !reflect.DeepEqual(v, w) {
						t.Errorf("%s%s: field %s is %v materialized, %v implicit", ep, tc.query, k, v, w)
					}
				}
			}
			var build BuildResponse
			if err := json.Unmarshal(mustBody(t, csr, "/v1/build?"+tc.query), &build); err != nil {
				t.Fatal(err)
			}
			n := build.Nodes
			rng := rand.New(rand.NewSource(1))
			count := tc.pairs
			if count == 0 {
				count = n * n
			}
			for i := 0; i < count; i++ {
				src, dst := i/n, i%n
				if tc.pairs > 0 {
					src, dst = rng.Intn(n), rng.Intn(n)
				}
				path := fmt.Sprintf("/v1/route?%s&src=%d&dst=%d", tc.query, src, dst)
				want := mustBody(t, csr, path)
				if got := mustBody(t, impl, path); !bytes.Equal(got, want) {
					t.Fatalf("%s: materialized %s, implicit %s", path, want, got)
				}
			}
		})
	}
}

// mustBody answers path in-process and fails t unless the status is 200.
func mustBody(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	code, body := serveBody(srv, path)
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, code, body)
	}
	return body
}

// TestTransposeDrainOnIDs checks that a super-IPG transpose drain runs
// the address transposition straight on the simulator's node ids, the
// run an outside oracle makes: /v1/simulate?workload=transpose on
// HSN(3,Q2) equals netsim.RunPermutationCtx over netsim.Transpose(6) on
// the artifact's own simulator network.
func TestTransposeDrainOnIDs(t *testing.T) {
	const query = "net=hsn&l=3&nucleus=q2"
	srv := NewServer(Config{Workers: 2})
	var got SimulateResponse
	if err := json.Unmarshal(mustBody(t, srv, "/v1/simulate?"+query+"&workload=transpose&seed=3"), &got); err != nil {
		t.Fatal(err)
	}
	p, _, err := ParamsFromRawQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildArtifact(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := a.SimNetwork(8)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := netsim.Transpose(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunPermutationCtx(context.Background(), net, 3, perm, maxDrainRounds)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if got.Rounds != res.Rounds || got.Delivered != st.Delivered || got.Latency != st.AvgLatency() || got.OffChip != st.OffChipPerPacket() {
		t.Fatalf("served transpose: %d rounds, %d delivered, latency %v, off-chip %v; on ids: %d, %d, %v, %v",
			got.Rounds, got.Delivered, got.Latency, got.OffChip, res.Rounds, st.Delivered, st.AvgLatency(), st.OffChipPerPacket())
	}
}
