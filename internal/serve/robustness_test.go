package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBuildPanicRecovery checks the panic containment on the build path:
// builds run on the cache's singleflight goroutine, so an unrecovered
// panic there would kill the daemon.  A panicking Builder must instead
// surface as a 500 with a JSON error body, increment ipgd_panics_total,
// and leave the server fully able to serve other families.
func TestBuildPanicRecovery(t *testing.T) {
	srv := NewServer(Config{
		Workers: 2,
		Builder: func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			if p.Net == "hsn" {
				panic("synthetic build explosion")
			}
			return BuildArtifact(ctx, p, maxNodes)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var body map[string]string
	resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", &body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body["error"], "panicked") {
		t.Errorf("panicking build error body = %q, want mention of the panic", body["error"])
	}

	// The daemon must keep serving: health green, other families fine.
	var health map[string]string
	if resp := get(t, ts, "/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after panic: %d %+v", resp.StatusCode, health)
	}
	if resp := get(t, ts, "/v1/build?net=hypercube&dim=5&logm=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy family after panic: status %d, want 200", resp.StatusCode)
	}

	prom := readAll(t, mustGet(t, ts, "/metrics"))
	if v := promValue(t, prom, "ipgd_panics_total"); v != 1 {
		t.Errorf("ipgd_panics_total = %v, want 1", v)
	}
	if !strings.Contains(prom, `ipgd_requests_total{endpoint="/v1/build",code="500"} 1`) {
		t.Errorf("requests_total missing the 500 sample:\n%s", prom)
	}
}

// TestHandlerPanicRecovery exercises the instrument middleware directly
// with a panicking handler: the client gets a 500 JSON error, the panic
// counter and the per-endpoint request counter both record it.
func TestHandlerPanicRecovery(t *testing.T) {
	srv := NewServer(Config{})
	h := srv.instrument("/test", func(w http.ResponseWriter, r *http.Request) error {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/test", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler exploded") {
		t.Errorf("panic body = %q, want the panic value", rec.Body.String())
	}
	if v := srv.metrics.panics.Load(); v != 1 {
		t.Errorf("panics counter = %d, want 1", v)
	}

	// A panic after the handler already wrote must not attempt a second
	// WriteHeader; the counted code still flips to 500.
	h2 := srv.instrument("/test2", func(w http.ResponseWriter, r *http.Request) error {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "partial")
		panic("late explosion")
	})
	rec2 := httptest.NewRecorder()
	h2(rec2, httptest.NewRequest(http.MethodGet, "/test2", nil))
	if v := srv.metrics.panics.Load(); v != 2 {
		t.Errorf("panics counter = %d, want 2", v)
	}
	var buf strings.Builder
	srv.metrics.WriteProm(&buf, srv.cache.Stats(), breakerStats{}, nil)
	if !strings.Contains(buf.String(), `ipgd_requests_total{endpoint="/test2",code="500"} 1`) {
		t.Errorf("late panic not counted as 500:\n%s", buf.String())
	}
}

// TestRetryTransient checks the bounded retry-with-backoff: a Builder
// failing with ErrTransient is retried up to BuildRetries times, the
// retries are counted, and a family that keeps failing surfaces the
// error after exhausting its budget.
func TestRetryTransient(t *testing.T) {
	var hsnCalls, ringCalls atomic.Int64
	srv := NewServer(Config{
		Workers:      2,
		BuildRetries: 3,
		RetryBackoff: time.Millisecond,
		Builder: func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			switch p.Net {
			case "hsn":
				if hsnCalls.Add(1) <= 2 {
					return nil, fmt.Errorf("%w: flaky dependency", ErrTransient)
				}
				return BuildArtifact(ctx, p, maxNodes)
			case "ring-cn":
				ringCalls.Add(1)
				return nil, fmt.Errorf("%w: permanently flaky", ErrTransient)
			}
			return BuildArtifact(ctx, p, maxNodes)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two transient failures, then success: the client sees one clean 200.
	if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("transient-then-ok build: status %d, want 200", resp.StatusCode)
	}
	if n := hsnCalls.Load(); n != 3 {
		t.Errorf("hsn builder ran %d times, want 3 (1 try + 2 retries)", n)
	}

	// Transient forever: 1 try + 3 retries, then the error surfaces.
	if resp := get(t, ts, "/v1/build?net=ring-cn&l=3&nucleus=q2", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("exhausted retries: status %d, want 500", resp.StatusCode)
	}
	if n := ringCalls.Load(); n != 4 {
		t.Errorf("ring-cn builder ran %d times, want 4 (1 try + 3 retries)", n)
	}

	prom := readAll(t, mustGet(t, ts, "/metrics"))
	if v := promValue(t, prom, "ipgd_build_retries_total"); v != 5 {
		t.Errorf("ipgd_build_retries_total = %v, want 5 (2 hsn + 3 ring-cn)", v)
	}
}

// TestBreakerCycle walks one family's circuit through the full
// open -> fast-fail -> half-open -> re-open -> half-open -> closed
// cycle, asserting the HTTP behavior, the builder invocation counts,
// and every breaker metric along the way.
func TestBreakerCycle(t *testing.T) {
	const cooldown = 250 * time.Millisecond
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int64
	srv := NewServer(Config{
		Workers:          2,
		BuildRetries:     -1, // isolate the breaker from the retry loop
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
		Builder: func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			if p.Net == "hsn" {
				calls.Add(1)
				if fail.Load() {
					return nil, fmt.Errorf("backing store down")
				}
			}
			return BuildArtifact(ctx, p, maxNodes)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two genuine failures trip the threshold-2 circuit.
	for i := 0; i < 2; i++ {
		if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i+1, resp.StatusCode)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("builder ran %d times before trip, want 2", n)
	}

	// Open: fast 503 with Retry-After, builder not consulted.
	resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-circuit 503 missing Retry-After header")
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("open circuit consulted the builder (%d calls)", n)
	}

	// The breaker is per family: other families are unaffected.
	if resp := get(t, ts, "/v1/build?net=hypercube&dim=5&logm=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated family while hsn open: status %d, want 200", resp.StatusCode)
	}

	prom := readAll(t, mustGet(t, ts, "/metrics"))
	if v := promValue(t, prom, "ipgd_breaker_open"); v != 1 {
		t.Errorf("ipgd_breaker_open = %v, want 1", v)
	}
	if v := promValue(t, prom, "ipgd_breaker_open_total"); v != 1 {
		t.Errorf("ipgd_breaker_open_total = %v, want 1", v)
	}
	if v := promValue(t, prom, "ipgd_breaker_fastfail_total"); v != 1 {
		t.Errorf("ipgd_breaker_fastfail_total = %v, want 1", v)
	}

	// After the cooldown the circuit is half-open and admits one probe.
	time.Sleep(cooldown + 100*time.Millisecond)
	prom = readAll(t, mustGet(t, ts, "/metrics"))
	if v := promValue(t, prom, "ipgd_breaker_half_open"); v != 1 {
		t.Errorf("ipgd_breaker_half_open = %v, want 1 after cooldown", v)
	}
	if v := promValue(t, prom, "ipgd_breaker_open"); v != 0 {
		t.Errorf("ipgd_breaker_open = %v, want 0 after cooldown", v)
	}

	// A failing probe re-opens the circuit for another cooldown.
	if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing probe: status %d, want 500", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("builder ran %d times after probe, want 3", n)
	}
	if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after failed probe: status %d, want 503 (re-opened)", resp.StatusCode)
	}

	// Heal the backend; the next probe closes the circuit for good.
	fail.Store(false)
	time.Sleep(cooldown + 100*time.Millisecond)
	if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healing probe: status %d, want 200", resp.StatusCode)
	}
	if resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("closed circuit: status %d, want 200", resp.StatusCode)
	}

	prom = readAll(t, mustGet(t, ts, "/metrics"))
	if v := promValue(t, prom, "ipgd_breaker_open"); v != 0 {
		t.Errorf("ipgd_breaker_open = %v, want 0 after close", v)
	}
	if v := promValue(t, prom, "ipgd_breaker_half_open"); v != 0 {
		t.Errorf("ipgd_breaker_half_open = %v, want 0 after close", v)
	}
	if v := promValue(t, prom, "ipgd_breaker_open_total"); v != 2 {
		t.Errorf("ipgd_breaker_open_total = %v, want 2 (trip + failed probe)", v)
	}
}

// TestMetricsDegraded checks the /v1/metrics fault parameters: the
// degraded block appears exactly when fault parameters are present, is
// deterministic per (mode, count, seed), reduces to the healthy metrics
// at zero faults, and never leaks into the memoized fault-free body.
func TestMetricsDegraded(t *testing.T) {
	srv := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fault-free request: no degraded block.
	var plain MetricsDoc
	if resp := get(t, ts, "/v1/metrics?net=hypercube&dim=6&logm=2", &plain); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain metrics: status %d", resp.StatusCode)
	}
	if plain.Degraded != nil {
		t.Fatalf("fault-free request got a degraded block: %+v", plain.Degraded)
	}

	// Zero faults: the block reduces to the healthy graph's metrics.
	var zero MetricsDoc
	if resp := get(t, ts, "/v1/metrics?net=hypercube&dim=6&logm=2&faults=0", &zero); resp.StatusCode != http.StatusOK {
		t.Fatalf("zero-fault metrics: status %d", resp.StatusCode)
	}
	z := zero.Degraded
	if z == nil {
		t.Fatal("faults=0 request missing the degraded block")
	}
	if z.Alive != 64 || z.Components != 1 || z.Diameter != 6 || z.GiantDiameter != 6 {
		t.Errorf("zero-fault block wrong: %+v", z)
	}

	// Node faults on the clustered hypercube: exact counts, chip census.
	const q = "/v1/metrics?net=hypercube&dim=6&logm=2&faults=4&fmode=node&fseed=7"
	var doc MetricsDoc
	if resp := get(t, ts, q, &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded metrics: status %d", resp.StatusCode)
	}
	d := doc.Degraded
	if d == nil {
		t.Fatal("degraded block missing")
	}
	if d.Mode != "node" || d.Count != 4 || d.Seed != 7 {
		t.Errorf("echoed spec wrong: %+v", d)
	}
	if d.Alive != 60 || d.FailedNodes != 4 {
		t.Errorf("alive/failed wrong: %+v", d)
	}
	if d.ChipsTotal != 16 {
		t.Errorf("chips_total = %d, want 16 (Q6 with 4-node chips)", d.ChipsTotal)
	}
	if d.Components < 1 || d.LargestComponent <= 0 || d.LargestComponent > d.Alive {
		t.Errorf("component census inconsistent: %+v", d)
	}

	// Same spec twice: identical sample, identical block.
	var again MetricsDoc
	get(t, ts, q, &again)
	if !reflect.DeepEqual(doc.Degraded, again.Degraded) {
		t.Errorf("degraded block not deterministic:\n%+v\n%+v", doc.Degraded, again.Degraded)
	}

	// The memoized fault-free body must stay untouched by fault requests.
	var plain2 MetricsDoc
	get(t, ts, "/v1/metrics?net=hypercube&dim=6&logm=2", &plain2)
	if plain2.Degraded != nil {
		t.Errorf("fault request leaked into the memoized body: %+v", plain2.Degraded)
	}

	// Adversarial mode is legal here (it is the simulate side that rejects
	// it), and super-IPG chip faults use the nucleus clustering.
	var adv MetricsDoc
	if resp := get(t, ts, "/v1/metrics?net=hypercube&dim=6&logm=2&faults=3&fmode=adversarial&fseed=1", &adv); resp.StatusCode != http.StatusOK {
		t.Fatalf("adversarial metrics: status %d", resp.StatusCode)
	}
	if adv.Degraded == nil || adv.Degraded.Mode != "adversarial" {
		t.Fatalf("adversarial block missing: %+v", adv.Degraded)
	}
	var chip MetricsDoc
	if resp := get(t, ts, "/v1/metrics?net=hsn&l=3&nucleus=q2&faults=2&fmode=chip&fseed=3", &chip); resp.StatusCode != http.StatusOK {
		t.Fatalf("super chip metrics: status %d", resp.StatusCode)
	}
	c := chip.Degraded
	if c == nil || c.FailedChips != 2 || c.ChipsDead != 2 || c.ChipsTotal <= 2 {
		t.Fatalf("super chip block wrong: %+v", c)
	}

	// Invalid fault parameters are client errors.
	for _, bad := range []string{
		"/v1/metrics?net=hypercube&dim=6&logm=2&faults=4&fmode=bogus",
		"/v1/metrics?net=hypercube&dim=6&logm=2&faults=-1",
		"/v1/metrics?net=hypercube&dim=6&logm=2&faults=4&frouting=psychic",
		"/v1/metrics?net=hypercube&dim=6&logm=2&faults=999",
	} {
		if resp := get(t, ts, bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestMetricsDegradedUnmaterialized checks that fault analysis on a
// label-level-only artifact is refused as a client error rather than a
// nil dereference.
func TestMetricsDegradedUnmaterialized(t *testing.T) {
	srv := NewServer(Config{Workers: 2, MaxNodes: 10}) // HSN(3,Q2) is 64 nodes: skeleton only
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp := get(t, ts, "/v1/metrics?net=hsn&l=3&nucleus=q2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("label-level metrics: status %d", resp.StatusCode)
	}
	resp := get(t, ts, "/v1/metrics?net=hsn&l=3&nucleus=q2&faults=2", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("faults on unmaterialized artifact: status %d, want 400", resp.StatusCode)
	}
}

// TestSimulateFaults checks the /v1/simulate fault parameters: the fault
// echo block, exact packet conservation on the drained total exchange,
// and the aware/oblivious routing split.
func TestSimulateFaults(t *testing.T) {
	srv := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	run := func(q string) SimulateResponse {
		t.Helper()
		var resp SimulateResponse
		if r := get(t, ts, q, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, r.StatusCode)
		}
		return resp
	}

	aware := run("/v1/simulate?net=hypercube&dim=5&logm=1&workload=te&faults=3&fmode=link&fseed=2&frouting=aware")
	if aware.Faults == nil {
		t.Fatal("degraded simulation missing the faults block")
	}
	if f := aware.Faults; f.Mode != "link" || f.Count != 3 || f.Seed != 2 || f.Routing != "aware" || f.DeadLinks != 3 {
		t.Errorf("fault echo wrong: %+v", f)
	}
	// The drained total exchange accounts every packet exactly once.
	if aware.Delivered+aware.Dropped != aware.Injected {
		t.Errorf("conservation violated: injected %d != delivered %d + dropped %d",
			aware.Injected, aware.Delivered, aware.Dropped)
	}
	if aware.Retried != 0 {
		t.Errorf("aware routing retried %d times; it must never misroute", aware.Retried)
	}

	oblivious := run("/v1/simulate?net=hypercube&dim=5&logm=1&workload=te&faults=3&fmode=link&fseed=2&frouting=oblivious")
	if oblivious.Faults == nil || oblivious.Faults.Routing != "oblivious" {
		t.Fatalf("oblivious echo wrong: %+v", oblivious.Faults)
	}
	if oblivious.Delivered+oblivious.Dropped != oblivious.Injected {
		t.Errorf("oblivious conservation violated: %+v", oblivious)
	}
	if aware.Delivered < oblivious.Delivered {
		t.Errorf("aware delivered %d < oblivious %d on the same fault sample",
			aware.Delivered, oblivious.Delivered)
	}

	node := run("/v1/simulate?net=hypercube&dim=5&logm=1&workload=te&faults=2&fmode=node&fseed=5")
	if node.Faults == nil || node.Faults.DeadNodes != 2 {
		t.Fatalf("node fault echo wrong: %+v", node.Faults)
	}
	if node.Delivered+node.Dropped != node.Injected {
		t.Errorf("node-fault conservation violated: %+v", node)
	}

	// Adversarial faults are a graph-cut concept with no port analogue.
	if resp := get(t, ts, "/v1/simulate?net=hypercube&dim=5&logm=1&workload=te&faults=2&fmode=adversarial", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adversarial simulate: status %d, want 400", resp.StatusCode)
	}
}

// TestSimulateRoundCap checks that warmup+measure above SimMaxRounds is a
// 400 naming the cap, decided before the request takes a worker slot: with
// the only slot held and no queue, an over-cap query still gets its 400
// rather than a 503.  Every other input check of /v1/simulate — rate and
// chipcap, workload, fault spec, transpose shape, the SimMaxPackets
// budget — and /v1/route's src/dst range and multipath checks on an
// implicit artifact are held to the same ordering.  The defaults and the
// caps themselves stay accepted.
func TestSimulateRoundCap(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: -1, ImplicitThreshold: 32})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const base = "/v1/simulate?net=hypercube&dim=4&logm=1&rate=0.1"

	// Build the artifacts the held-slot queries need first: a build takes
	// the slot too.  Q6 (64 nodes) is above the threshold, so implicit.
	for _, q := range []string{"net=hypercube&dim=4&logm=1", "net=hypercube&dim=5&logm=1", "net=hypercube&dim=6"} {
		if resp := get(t, ts, "/v1/build?"+q, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("build %s: status %d", q, resp.StatusCode)
		}
	}
	release, err := srv.acquireSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want string }{
		{base + fmt.Sprintf("&warmup=%d&measure=1", SimMaxRounds), fmt.Sprint(SimMaxRounds)},
		{base + fmt.Sprintf("&warmup=0&measure=%d", SimMaxRounds+1), fmt.Sprint(SimMaxRounds)},
		{base + "&warmup=9223372036854775807&measure=9223372036854775807", fmt.Sprint(SimMaxRounds)},
		{"/v1/simulate?net=hypercube&dim=4&logm=1&rate=Inf", "finite"},
		{"/v1/simulate?net=hypercube&dim=4&logm=1&rate=NaN", "finite"},
		{"/v1/simulate?net=hypercube&dim=4&logm=1&chipcap=Inf", "finite"},
		{"/v1/simulate?net=hypercube&dim=4&logm=1&rate=1e9", fmt.Sprintf("cap of %g", SimMaxRate)},
		{base + "&workload=bogus&faults=4", "bogus"},
		{base + "&faults=-1", "faults"},
		{base + "&faults=2&fmode=bogus", "bogus"},
		{base + "&faults=2&frouting=bogus", "frouting"},
		{base + "&faults=2&fmode=adversarial", "adversarial"},
		{"/v1/simulate?net=hypercube&dim=5&logm=1&workload=transpose", "transpose"},
		{"/v1/route?net=hypercube&dim=6&src=0&dst=64", "src/dst"},
		{"/v1/route?net=hypercube&dim=6&src=0&dst=1&multipath=2", "not materialized"},
		{"/v1/route?net=hypercube&dim=6&src=0&dst=1&multipath=2&fmode=bogus", "bogus"},
		{"/v1/route?net=hypercube&dim=6&src=0&dst=1&multipath=2&faults=2&fmode=adversarial", "adversarial"},
	} {
		var body map[string]string
		if resp := get(t, ts, tc.q, &body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with the pool full: status %d, want 400", tc.q, resp.StatusCode)
		}
		if !strings.Contains(body["error"], tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.q, body["error"], tc.want)
		}
	}
	release()

	// The packet budget needs a materialized network above 128 nodes,
	// which the implicit threshold above rules out, so a second server
	// holds Q12.  At the cap a query passes every check made before the
	// slot and meets the held slot's 503; one round more is a 400.
	big := NewServer(Config{Workers: 1, QueueDepth: -1})
	bts := httptest.NewServer(big)
	defer bts.Close()
	const q12 = "/v1/simulate?net=hypercube&dim=12&logm=2"
	if resp := get(t, bts, "/v1/build?net=hypercube&dim=12&logm=2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("build Q12: status %d", resp.StatusCode)
	}
	if release, err = big.acquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q      string
		status int
	}{
		{q12 + "&rate=1&warmup=0&measure=1024", http.StatusServiceUnavailable},
		{q12 + "&rate=1&warmup=1&measure=1024", http.StatusBadRequest},
		{q12 + "&workload=te", http.StatusBadRequest},
	} {
		var body map[string]string
		if resp := get(t, bts, tc.q, &body); resp.StatusCode != tc.status {
			t.Fatalf("%s with the pool full: status %d, want %d", tc.q, resp.StatusCode, tc.status)
		}
		if want := fmt.Sprint(SimMaxPackets); tc.status == http.StatusBadRequest && !strings.Contains(body["error"], want) {
			t.Errorf("%s: error %q does not mention %s", tc.q, body["error"], want)
		}
	}
	release()

	for _, q := range []string{
		"/v1/simulate?net=hypercube&dim=4&logm=1",
		base,
		base + fmt.Sprintf("&warmup=%d&measure=%d", SimMaxRounds/2, SimMaxRounds/2),
		fmt.Sprintf("/v1/simulate?net=hypercube&dim=4&logm=1&rate=%g&warmup=5&measure=5", SimMaxRate),
	} {
		var resp SimulateResponse
		if r := get(t, ts, q, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d, want 200", q, r.StatusCode)
		}
	}
}
