package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nullResponseWriter is the alloc-test sink: a reusable ResponseWriter
// whose header map persists across runs, mirroring net/http's per-request
// header reuse without the connection machinery.  The tests call handlers
// directly (below instrument's per-request context.WithTimeout, which
// necessarily allocates) — the handler plus response path is the part the
// zero-allocation overhaul claims.
type nullResponseWriter struct {
	h     http.Header
	code  int
	bytes int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }

func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}

func (w *nullResponseWriter) WriteHeader(code int) { w.code = code }

// TestWarmMetricsZeroAllocs locks in the tentpole claim: a warm
// /v1/metrics request — raw-query decode, validation, breaker check,
// cache lookup, memoized body with ETag — performs zero heap allocations.
func TestWarmMetricsZeroAllocs(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics?net=hsn&l=2&nucleus=q2", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	if err := srv.handleMetrics(w, req); err != nil {
		t.Fatalf("prime request: %v", err)
	}
	if w.bytes == 0 {
		t.Fatal("prime request wrote no body")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := srv.handleMetrics(w, req); err != nil {
			t.Fatalf("warm request: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm /v1/metrics: %.2f allocs/op, want 0", allocs)
	}
}

// TestWarmMetrics304ZeroAllocs covers the revalidation path: a matching
// If-None-Match answers 304 without a body and without allocating.
func TestWarmMetrics304ZeroAllocs(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics?net=torus&k=4&side=2", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	if err := srv.handleMetrics(w, req); err != nil {
		t.Fatalf("prime request: %v", err)
	}
	etag := w.h["Etag"]
	if len(etag) != 1 || etag[0] == "" {
		t.Fatalf("prime request set no ETag: %v", etag)
	}
	req.Header.Set("If-None-Match", etag[0])
	allocs := testing.AllocsPerRun(200, func() {
		w.bytes = 0
		if err := srv.handleMetrics(w, req); err != nil {
			t.Fatalf("revalidation request: %v", err)
		}
		if w.code != http.StatusNotModified || w.bytes != 0 {
			t.Fatalf("revalidation: code %d with %d body bytes, want bodyless 304", w.code, w.bytes)
		}
	})
	if allocs != 0 {
		t.Errorf("warm 304 revalidation: %.2f allocs/op, want 0", allocs)
	}
}

// TestHealthzZeroAllocs asserts the liveness probe serves its preencoded
// body without allocating.
func TestHealthzZeroAllocs(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		srv.handleHealthz(w, req)
	})
	if allocs != 0 {
		t.Errorf("/healthz: %.2f allocs/op, want 0", allocs)
	}
}

// TestStaticErrorEnvelopeZeroAllocs asserts the load-shedding rejections
// (pool saturated, breaker open, deadline, cancellation sentinels) are
// served from preencoded envelopes: shedding load must not allocate, or
// the shedding itself feeds the GC pressure it is escaping.
func TestStaticErrorEnvelopeZeroAllocs(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	w := &nullResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		if code := srv.writeError(w, ErrSaturated); code != http.StatusServiceUnavailable {
			t.Fatalf("writeError(ErrSaturated) = %d, want 503", code)
		}
	})
	if allocs != 0 {
		t.Errorf("saturated error envelope: %.2f allocs/op, want 0", allocs)
	}
}

// TestQueryDecodeZeroAllocs holds the one-pass query decode, family
// validation included, at zero allocations on escape-free queries shaped
// like perfbench's route, multipath, simulate and faulted-metrics
// requests.
func TestQueryDecodeZeroAllocs(t *testing.T) {
	for _, target := range []string{
		"/v1/route?net=hsn&l=3&nucleus=q3&src=5&dst=77",
		"/v1/route?net=torus&k=8&side=2&src=3&dst=60&multipath=3",
		"/v1/simulate?net=hsn&l=3&nucleus=q2&workload=random&seed=2&rate=0.1&warmup=10&measure=40&faults=2&fmode=node&fseed=1&frouting=aware",
		"/v1/simulate?net=hypercube&dim=8&logm=2&workload=te&seed=1",
		"/v1/metrics?net=sfn&l=3&nucleus=q2&faults=4&fmode=link&fseed=2",
	} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		var q query
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if q, err = requestQuery(req); err != nil {
				t.Fatalf("%s: %v", target, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", target, allocs)
		}
		if q.vals == ([numEndpointParams]string{}) {
			t.Errorf("%s: decoded no endpoint parameter", target)
		}
	}
}
