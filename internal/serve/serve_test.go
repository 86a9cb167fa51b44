package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingBuilder wraps BuildArtifact and counts builds per canonical key.
type countingBuilder struct {
	mu     sync.Mutex
	builds map[string]int
}

func newCountingBuilder() *countingBuilder {
	return &countingBuilder{builds: map[string]int{}}
}

func (b *countingBuilder) build(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
	b.mu.Lock()
	b.builds[p.Key()]++
	b.mu.Unlock()
	return BuildArtifact(ctx, p, maxNodes)
}

func (b *countingBuilder) count(key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.builds[key]
}

func (b *countingBuilder) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.builds {
		n += c
	}
	return n
}

// get issues one GET and decodes the JSON body into out (if non-nil).
func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return resp
}

// promValue scans Prometheus text output for an exact sample name.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return 0
}

// TestConcurrentBuildsSingleflight is the acceptance integration test:
// >= 64 concurrent requests over repeated and distinct families must
// trigger exactly one build per distinct key, later requests must be
// served from cache without rebuild, and /metrics must agree with the
// observed traffic.
func TestConcurrentBuildsSingleflight(t *testing.T) {
	cb := newCountingBuilder()
	srv := NewServer(Config{
		Workers:    8,
		QueueDepth: 16,
		Builder:    cb.build,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	queries := []string{
		"net=hsn&l=2&nucleus=q2",
		"net=hsn&l=3&nucleus=q2",
		"net=ring-cn&l=3&nucleus=q2",
		"net=complete-cn&l=3&nucleus=q2",
		"net=sfn&l=3&nucleus=q2",
		"net=hypercube&dim=6&logm=2",
		"net=torus&k=8&side=2",
		"net=ccc&dim=4",
	}
	const perKey = 12 // 8 * 12 = 96 concurrent requests
	total := perKey * len(queries)

	var wg sync.WaitGroup
	codes := make([]int, total)
	cached := make([]bool, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			resp, err := ts.Client().Get(ts.URL + "/v1/build?" + q)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var br BuildResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Errorf("request %d: bad JSON: %v", i, err)
				return
			}
			cached[i] = br.Cached
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	for _, q := range queries {
		p, prov, err := ParamsFromRawQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckProvided(prov); err != nil {
			t.Fatal(err)
		}
		if n := cb.count(p.Key()); n != 1 {
			t.Errorf("key %s built %d times, want exactly 1", p.Key(), n)
		}
	}

	// Second pass: every family must now come from cache, no rebuild.
	before := cb.total()
	for _, q := range queries {
		var br BuildResponse
		resp := get(t, ts, "/v1/build?"+q, &br)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cached GET %s: status %d", q, resp.StatusCode)
		}
		if !br.Cached {
			t.Errorf("second request for %s not served from cache", q)
		}
	}
	if after := cb.total(); after != before {
		t.Errorf("cached pass triggered %d rebuilds", after-before)
	}

	// /metrics must be consistent with the traffic we just generated:
	// one miss per distinct key, everything else a hit, nothing in flight.
	body := readAll(t, mustGet(t, ts, "/metrics"))
	misses := promValue(t, body, "ipgd_cache_misses_total")
	hits := promValue(t, body, "ipgd_cache_hits_total")
	if int(misses) != len(queries) {
		t.Errorf("misses = %v, want %d", misses, len(queries))
	}
	// Pass one: total requests of which len(queries) are misses; pass
	// two: len(queries) more hits.  Hits therefore equal `total` exactly.
	if hits != float64(total) {
		t.Errorf("hits = %v, want %d (requests %d, misses %d)", hits, total, total+len(queries), len(queries))
	}
	if v := promValue(t, body, "ipgd_builds_in_flight"); v != 0 {
		t.Errorf("builds_in_flight = %v after drain", v)
	}
	if v := promValue(t, body, "ipgd_requests_in_flight"); v != 1 {
		// The /metrics request itself is not instrumented, so 0 is also
		// acceptable; tolerate either but nothing larger.
		if v != 0 {
			t.Errorf("requests_in_flight = %v after drain", v)
		}
	}
	if v := promValue(t, body, "ipgd_cache_entries"); int(v) != len(queries) {
		t.Errorf("cache entries = %v, want %d", v, len(queries))
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSaturationReturns503 checks the backpressure contract: with one
// worker and no queue, a second concurrent build is refused with 503 and
// a Retry-After header.
func TestSaturationReturns503(t *testing.T) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	srv := NewServer(Config{
		Workers:    1,
		QueueDepth: -1, // no waiting: reject when the slot is busy
		Builder: func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			once.Do(func() { close(entered) })
			select {
			case <-unblock:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return BuildArtifact(ctx, p, maxNodes)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/build?net=hsn&l=2&nucleus=q2")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered // the slow build now owns the only worker slot

	resp := get(t, ts, "/v1/build?net=hsn&l=3&nucleus=q2", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated 503 response missing Retry-After header")
	}

	close(unblock)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("slow build request finished with status %d", code)
	}
}

// TestRequestDeadlineReturns504 checks that a build outlasting the
// request timeout yields 504 promptly and cancels the detached build.
func TestRequestDeadlineReturns504(t *testing.T) {
	buildCancelled := make(chan struct{})
	srv := NewServer(Config{
		RequestTimeout: 50 * time.Millisecond,
		Builder: func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			<-ctx.Done() // the flight context is cancelled when the last waiter leaves
			close(buildCancelled)
			return nil, ctx.Err()
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	resp := get(t, ts, "/v1/build?net=hsn&l=2&nucleus=q2", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v, not prompt", elapsed)
	}
	select {
	case <-buildCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("detached build was never cancelled after the waiter left")
	}
}

// TestEndpointsSmoke exercises each endpoint once for correctness of the
// response shapes.
func TestEndpointsSmoke(t *testing.T) {
	srv := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var health map[string]string
	if resp := get(t, ts, "/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	var doc MetricsDoc
	if resp := get(t, ts, "/v1/metrics?net=hsn&l=3&nucleus=q2&diameter=1", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if doc.Network != "HSN(3,Q2)" || !doc.Materialized || doc.Super == nil || doc.Structure == nil {
		t.Fatalf("metrics doc incomplete: %+v", doc)
	}
	if doc.Super.InterclusterT == nil || *doc.Super.InterclusterT != 2 {
		t.Errorf("HSN(3,Q2) intercluster t = %v, want 2 (l-1)", doc.Super.InterclusterT)
	}
	if doc.Diameter == nil || *doc.Diameter <= 0 {
		t.Errorf("diameter missing from doc: %+v", doc.Diameter)
	}

	var route RouteResponse
	if resp := get(t, ts, "/v1/route?net=hsn&l=2&nucleus=q2&src=0&dst=5", &route); resp.StatusCode != http.StatusOK {
		t.Fatalf("route: status %d", resp.StatusCode)
	}
	if route.Hops != len(route.Path)-1 || route.Path[0] != 0 || route.Path[len(route.Path)-1] != 5 {
		t.Fatalf("route inconsistent: %+v", route)
	}
	if len(route.Labels) != len(route.Path) {
		t.Fatalf("route labels missing for super-IPG: %+v", route)
	}

	var sim SimulateResponse
	if resp := get(t, ts, "/v1/simulate?net=hypercube&dim=5&logm=1&workload=te", &sim); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	if sim.Delivered == 0 || sim.Rounds == 0 {
		t.Fatalf("simulate delivered nothing: %+v", sim)
	}

	// A CN family must route through the table router.
	var simCN SimulateResponse
	if resp := get(t, ts, "/v1/simulate?net=complete-cn&l=3&nucleus=q2&workload=random&rate=0.05&warmup=20&measure=50", &simCN); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate CN: status %d", resp.StatusCode)
	}
	if simCN.Delivered == 0 {
		t.Fatalf("CN simulation delivered nothing: %+v", simCN)
	}
}

// TestBadRequests checks validation failures surface as 400s with JSON
// error bodies.
func TestBadRequests(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []string{
		"/v1/build?net=bogus",
		"/v1/build?net=hypercube&l=3",    // l does not apply to hypercube
		"/v1/build?net=hsn&l=99",         // l out of range
		"/v1/build?net=hsn&nucleus=zz9",  // unknown nucleus
		"/v1/build?net=torus&k=8&side=3", // side does not divide k
		"/v1/route?net=hsn&l=2&nucleus=q2&src=-1&dst=0",
		"/v1/simulate?net=hsn&l=2&nucleus=q2&workload=nope",
		"/v1/simulate?net=ccc&dim=4",                    // no simulator for ccc
		"/v1/build?net=rcc&l=5&nucleus=q2",              // 4^32 nodes: RCC(r) labels hold 2^r nucleus states
		"/v1/metrics?net=hsn&l=7&nucleus=q4&diameter=1", // codec too large to sweep
		"/v1/build?net=torus&k=6&side=2",                // odd chip columns: no chip bisection
		"/v1/metrics?net=butterfly&dim=6&band=2",        // odd level bands: no chip bisection
	}
	for _, path := range cases {
		var body map[string]string
		resp := get(t, ts, path, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing JSON error body", path)
		}
	}
}

// TestEvictionUnderTightBudget checks the daemon survives a cache far
// smaller than its traffic and reports evictions.
func TestEvictionUnderTightBudget(t *testing.T) {
	srv := NewServer(Config{
		CacheBytes:  2 << 10, // below the combined size of the artifacts
		CacheShards: 1,
		Workers:     2,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	queries := []string{
		"net=hsn&l=2&nucleus=q2",
		"net=hypercube&dim=6&logm=2",
		"net=torus&k=8&side=2",
		"net=ccc&dim=4",
	}
	for _, q := range queries {
		if resp := get(t, ts, "/v1/build?"+q, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, resp.StatusCode)
		}
	}
	body := readAll(t, mustGet(t, ts, "/metrics"))
	evictions := promValue(t, body, "ipgd_cache_evictions_total")
	oversize := promValue(t, body, "ipgd_cache_oversize_total")
	if evictions == 0 && oversize == 0 {
		t.Errorf("tight budget produced no evictions or oversize rejections")
	}
	bytes := promValue(t, body, "ipgd_cache_bytes")
	if bytes > 2<<10 {
		t.Errorf("cache bytes %v above the %d budget", bytes, 2<<10)
	}
}

func mustGet(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
