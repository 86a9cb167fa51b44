package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ipg/internal/breaker"
	"ipg/internal/cache"
	"ipg/internal/cluster"
)

// ErrCircuitOpen is returned without touching the cache or the worker
// pool when a family's circuit breaker is open; handlers translate it to
// 503 + Retry-After.  It is the shared breaker package's sentinel, so
// errors.Is matches across layers.
var ErrCircuitOpen = breaker.ErrOpen

// ErrSaturated is returned by the worker pool when every slot is busy and
// the waiting queue is full; handlers translate it to 503 + Retry-After.
var ErrSaturated = errors.New("serve: worker pool saturated")

// ErrTransient marks a build failure as retryable: a Builder that wraps
// its error with ErrTransient (fmt.Errorf("%w: ...", serve.ErrTransient))
// opts into the bounded retry-with-backoff in getArtifact.  Deterministic
// failures (bad parameters, oversized instances) must not carry it.
var ErrTransient = errors.New("serve: transient build failure")

// Config sizes the daemon.
type Config struct {
	// CacheBytes is the artifact cache budget; 0 means 256 MiB.
	CacheBytes int64
	// CacheShards is the cache shard count; 0 means 16.
	CacheShards int
	// Workers bounds concurrent artifact builds and simulation runs; 0
	// means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many requests may wait for a free worker
	// before new arrivals are rejected with 503.  0 means 4x Workers; use
	// a negative value for "no waiting" (reject immediately when busy).
	QueueDepth int
	// RequestTimeout is the per-request deadline threaded into builds,
	// metric computations, and simulations; 0 means 60s.
	RequestTimeout time.Duration
	// MaxNodes caps topology materialization; 0 means 1<<16 (the same
	// threshold ipgtool uses).
	MaxNodes int
	// ImplicitThreshold is the node count above which an implicit-capable
	// family is served through its rank/unrank codec instead of a
	// materialized CSR arena.  0 means "at MaxNodes": only instances that
	// cannot be materialized go implicit.  Values above MaxNodes are
	// clamped to it.
	ImplicitThreshold int
	// SimMaxNodes caps /v1/simulate network sizes; 0 means 1<<13.
	SimMaxNodes int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// BuildRetries bounds how many times a build that fails with
	// ErrTransient is retried (with jittered exponential backoff) before
	// the error is surfaced; 0 means 2, negative disables retries.
	BuildRetries int
	// RetryBackoff is the base backoff before the first retry, doubled
	// each attempt; 0 means 50ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive genuine build failures per
	// family that open its circuit (fast 503s without consuming workers);
	// 0 means 5, negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fast-fails before
	// letting a half-open probe through; 0 means 10s.
	BreakerCooldown time.Duration
	// Builder overrides artifact construction (tests use it to count and
	// gate builds); nil means BuildArtifact.
	Builder func(ctx context.Context, p Params, maxNodes int) (*Artifact, error)
	// Cluster enables cluster mode: consistent-hash ownership of family
	// keys across replicas with peer-fill and hedged reads.  nil means
	// single-node operation (every request is served locally).
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 16
	}
	if c.SimMaxNodes <= 0 {
		c.SimMaxNodes = 1 << 13
	}
	if c.Builder == nil {
		th := c.ImplicitThreshold
		c.Builder = func(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
			return BuildArtifactThreshold(ctx, p, maxNodes, th)
		}
	}
	if c.BuildRetries == 0 {
		c.BuildRetries = 2
	}
	if c.BuildRetries < 0 {
		c.BuildRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// Server is the topology-serving HTTP handler set.  It is an
// http.Handler; cmd/ipgd wraps it in an http.Server for lifecycle
// management.
type Server struct {
	cfg     Config
	cache   *cache.Cache
	sem     chan struct{} // worker slots
	queued  chan struct{} // tokens for requests waiting on a slot
	metrics *serverMetrics
	breaker *breaker.Set // per-family circuits; nil when disabled
	mux     *http.ServeMux

	// retryAfter is the breaker-open Retry-After header value, precomputed
	// from BreakerCooldown so the 503 fast-fail path never allocates.
	retryAfter []string
}

// NewServer builds the handler set.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   cache.New(cache.Config{MaxBytes: cfg.CacheBytes, Shards: cfg.CacheShards}),
		sem:     make(chan struct{}, cfg.Workers),
		queued:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		metrics: newServerMetrics(),
		breaker: breaker.NewSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		mux:     http.NewServeMux(),
	}
	retry := int(cfg.BreakerCooldown / time.Second)
	if retry < 1 {
		retry = 1
	}
	s.retryAfter = []string{strconv.Itoa(retry)}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/build", s.instrument("/v1/build", s.handleBuild))
	s.mux.HandleFunc("/v1/metrics", s.instrument("/v1/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/route", s.instrument("/v1/route", s.handleRoute))
	s.mux.HandleFunc("/v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("/v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	s.mux.HandleFunc("/metrics", s.handleProm)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache exposes the artifact cache (tests and cmd/ipgd logging).
func (s *Server) Cache() *cache.Cache { return s.cache }

// acquireSlot claims a worker slot, waiting only while the bounded queue
// has room.  It returns ErrSaturated when Workers slots are busy and
// QueueDepth requests are already waiting.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	// The queued channel holds Workers+QueueDepth tokens: every request
	// that is either running or waiting holds one, so a failed non-blocking
	// take means the pool plus queue are full.
	select {
	case s.queued <- struct{}{}:
	default:
		return nil, ErrSaturated
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem; <-s.queued }, nil
	case <-ctx.Done():
		<-s.queued
		return nil, ctx.Err()
	}
}

// buildOnce runs the configured Builder exactly once, converting a panic
// into an error.  This recovery is load-bearing: builds execute on the
// cache's singleflight goroutine, where an unrecovered panic would kill
// the whole daemon, not just one request.
func (s *Server) buildOnce(ctx context.Context, p Params) (a *Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			err = fmt.Errorf("serve: build panicked for %s: %v", p.Key(), r)
		}
	}()
	return s.cfg.Builder(ctx, p, s.cfg.MaxNodes)
}

// buildWithRetry retries transient build failures (errors wrapping
// ErrTransient) up to cfg.BuildRetries times with jittered exponential
// backoff, honoring ctx while sleeping.
func (s *Server) buildWithRetry(ctx context.Context, p Params) (*Artifact, error) {
	a, err := s.buildOnce(ctx, p)
	for i := 0; i < s.cfg.BuildRetries && err != nil && errors.Is(err, ErrTransient); i++ {
		d := s.cfg.RetryBackoff << i
		// Full jitter on the upper half keeps synchronized clients apart.
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
		s.metrics.buildRetries.Add(1)
		a, err = s.buildOnce(ctx, p)
	}
	return a, err
}

// buildOutcomeOf classifies err for the circuit breaker.  Outcomes that
// say nothing about the family's buildability — client errors, pool
// saturation, cancelled or expired deadlines — are neutral.
func buildOutcomeOf(err error) breaker.Outcome {
	var he *httpError
	switch {
	case err == nil:
		return breaker.OK
	case errors.As(err, &he), errors.Is(err, ErrSaturated),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return breaker.Neutral
	}
	return breaker.Fail
}

// getArtifact is the shared request path: breaker check, canonicalize,
// consult the cache, and build (with retry and panic containment) under a
// worker slot on miss.  The build itself runs on the cache's singleflight
// goroutine; the slot is held by the build function, so cache hits never
// touch the pool.  The breaker is keyed per family, so one family
// failing repeatedly cannot consume build slots needed by the rest.
func (s *Server) getArtifact(ctx context.Context, p Params) (*Artifact, bool, error) {
	if err := s.breaker.Allow(p.Net, time.Now()); err != nil {
		s.metrics.breakerFastFails.Add(1)
		return nil, false, err
	}
	// Warm path: probe the cache with a pooled key buffer so a hit never
	// allocates the key string.  The miss is not counted here — the
	// GetOrBuild below counts it when it starts (or joins) the build.
	kb := keyBufPool.Get().(*keyBuf)
	kb.b = p.AppendKey(kb.b[:0])
	if v, ok := s.cache.Lookup(kb.b); ok {
		keyBufPool.Put(kb)
		s.breaker.Report(p.Net, breaker.OK, time.Now())
		return v.(*Artifact), true, nil
	}
	key := string(kb.b)
	keyBufPool.Put(kb)
	v, hit, err := s.cache.GetOrBuild(ctx, key, func(bctx context.Context) (cache.Value, error) {
		release, err := s.acquireSlot(bctx)
		if err != nil {
			return nil, err
		}
		defer release()
		start := time.Now()
		a, err := s.buildWithRetry(bctx, p)
		if err != nil {
			return nil, err
		}
		s.metrics.observeBuild(time.Since(start))
		s.metrics.countBuild(a.Rep())
		return a, nil
	})
	s.breaker.Report(p.Net, buildOutcomeOf(err), time.Now())
	if err != nil {
		return nil, hit, err
	}
	return v.(*Artifact), hit, nil
}

// keyBuf wraps the pooled cache-key buffer (pooling the bare slice would
// allocate its header on every Put).
type keyBuf struct{ b []byte }

var keyBufPool = sync.Pool{New: func() any { return &keyBuf{b: make([]byte, 0, 64)} }}

// httpError is an error with a dedicated HTTP status.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// asBadRequest turns a non-nil err into a 400 with its message.
func asBadRequest(err error) error {
	if err == nil {
		return nil
	}
	return badRequest("%v", err)
}

// writeError maps an error to a JSON error body with the right status:
// pool saturation becomes 503 + Retry-After, a blown request deadline
// becomes 504, cancellations become 499 (client gone), everything else
// 400/500 by type.  The unwrapped sentinels — what load shedding and
// timeouts actually return — are served from preencoded envelopes, so a
// saturated server rejects without allocating; only errors carrying
// dynamic text pay for encoding.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	switch err {
	case ErrSaturated:
		w.Header()["Retry-After"] = retryAfterOne
		writeStaticJSON(w, http.StatusServiceUnavailable, saturatedBody.body, saturatedBody.clen)
		return http.StatusServiceUnavailable
	case ErrCircuitOpen:
		w.Header()["Retry-After"] = s.retryAfter
		writeStaticJSON(w, http.StatusServiceUnavailable, circuitOpenBody.body, circuitOpenBody.clen)
		return http.StatusServiceUnavailable
	case context.DeadlineExceeded:
		writeStaticJSON(w, http.StatusGatewayTimeout, deadlineBody.body, deadlineBody.clen)
		return http.StatusGatewayTimeout
	case context.Canceled:
		// 499 is nginx's "client closed request"; never seen by a live client.
		writeStaticJSON(w, 499, canceledBody.body, canceledBody.clen)
		return 499
	}
	code := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, ErrSaturated):
		code = http.StatusServiceUnavailable
		w.Header()["Retry-After"] = retryAfterOne
	case errors.Is(err, ErrCircuitOpen):
		code = http.StatusServiceUnavailable
		w.Header()["Retry-After"] = s.retryAfter
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = 499
	}
	// A write failure here means the client is gone; nothing to do.
	writeErrorJSON(w, code, err.Error())
	return code
}

// statusRecorder captures the response code for requests_total, and
// whether anything was written yet (so the panic recovery knows if a 500
// body can still be sent).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps an API handler with the request gauge/counters, the
// per-request deadline, and panic containment: a panicking handler is
// counted in ipgd_panics_total and answered with a 500 (when nothing was
// written yet) instead of tearing down the connection — and the daemon
// keeps serving.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requestsInFlight.Add(1)
		defer s.metrics.requestsInFlight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		// LIFO: the recover below runs before this, so the counted code
		// reflects the 500 a panic produced.
		defer func() { s.metrics.countRequest(endpoint, rec.code) }()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				if !rec.wrote {
					rec.code = s.writeError(rec, fmt.Errorf("serve: handler panicked: %v", p))
				} else {
					rec.code = http.StatusInternalServerError
				}
			}
		}()
		if err := h(rec, r.WithContext(ctx)); err != nil {
			rec.code = s.writeError(rec.ResponseWriter, err)
		}
	}
}
