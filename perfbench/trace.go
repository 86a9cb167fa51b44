package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"ipg/internal/cache"
	"ipg/internal/fault"
	"ipg/internal/netsim"
	"ipg/internal/serve"
	"ipg/internal/topo"
)

// The traced run replays the seeded request stream in-process.  Each
// request's root span is (*serve.Server).ServeHTTP into a recorder; builds
// inside it are timed through the public serve.Config.Builder hook.  The
// other layer spans come from a shadow pipeline in this file that makes
// the handler's public calls with the same inputs, in the handler's order,
// on its own cache and artifacts (so its memo state evolves exactly like
// the handler's).  Shadow spans are children of the request's root span;
// they run right after it, so a root's self time is its duration minus the
// summed durations of its children.

// span is one timed call.  parent is the index of the root span, -1 for
// roots.
type span struct {
	req    int
	parent int
	name   string
	start  time.Duration
	dur    time.Duration
}

type tracer struct {
	t0    time.Time
	spans []span
	req   int
	root  int // index of the open root span
}

func (t *tracer) add(name string, start time.Time, dur time.Duration) {
	t.spans = append(t.spans, span{req: t.req, parent: t.root, name: name, start: start.Sub(t.t0), dur: dur})
}

// step times fn as a child span of the current request.
func (t *tracer) step(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, start, time.Since(start))
	return err
}

// stepFn runs one layer call; the oracle runs it plainly, the shadow
// pipeline times it.
type stepFn func(name string, fn func() error) error

func plain(_ string, fn func() error) error { return fn() }

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	r.code = code
}
func (r *recorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}
func (r *recorder) reset() {
	clear(r.h)
	r.code = http.StatusOK
	r.body = r.body[:0]
}

func httpRequest(r *request) *http.Request {
	req, err := http.NewRequest(http.MethodGet, "http://ipgd"+r.path, nil)
	if err != nil {
		panic(err)
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	return req
}

// memo bits the shadow tracks per artifact, mirroring the artifact's own
// memoization so first-time computations get their own spans.
const (
	memoMetrics  = 1 << iota // fault-free document, no diameter
	memoMetricsD             // with diameter
	memoDiameter
)

// shadow is the traced pipeline's own serving state.
type shadow struct {
	cfg    serve.Config
	cache  *cache.Cache
	memo   map[*serve.Artifact]uint8
	simNet map[*serve.Artifact]*netsim.Network
	tr     *tracer
	key    []byte

	nodeRounds float64 // sum of nodes x rounds over netsim runs
}

func (sh *shadow) run(req *request, body []byte) error {
	if req.kind == kHealthz {
		return nil
	}
	ctx := context.Background()
	step := sh.tr.step
	var p serve.Params
	if err := step("serve.decode", func() error {
		var prov serve.Provided
		var err error
		if p, prov, err = serve.ParamsFromRawQuery(req.q); err != nil {
			return err
		}
		return p.CheckProvided(prov)
	}); err != nil {
		return err
	}
	sh.key = p.AppendKey(sh.key[:0])
	var v cache.Value
	var hit bool
	_ = step("cache.lookup", func() error { v, hit = sh.cache.Lookup(sh.key); return nil })
	if !hit {
		// The handler's build is timed inside ServeHTTP by the Builder
		// hook; the shadow's own copy is not a span.
		var err error
		v, _, err = sh.cache.GetOrBuild(ctx, string(sh.key), func(ctx context.Context) (cache.Value, error) {
			return serve.BuildArtifactThreshold(ctx, p, sh.cfg.MaxNodes, sh.cfg.ImplicitThreshold)
		})
		if err != nil {
			return err
		}
	}
	a := v.(*serve.Artifact)
	switch req.kind {
	case kBuild:
		return sh.encode(body, &serve.BuildResponse{})
	case kMetrics:
		return sh.metrics(ctx, a, req.diameter)
	case kRoute, kMultipath:
		src := a.Source()
		s := topo.GetScratch(src.N())
		name := "topo.bfs"
		if !a.Materialized() {
			name = "topo.codec_bfs"
		}
		_ = step(name, func() error {
			_, _, s.Nbuf = topo.BFSSourceInto(src, req.src, s.Dist, s.Queue, s.NeighborBuf(src.DegreeBound()))
			return nil
		})
		topo.PutScratch(s)
		if req.kind == kMultipath {
			if err := step("ist.trees", func() error { return istPaths(ctx, a, req) }); err != nil {
				return err
			}
		}
		return sh.encode(body, &serve.RouteResponse{})
	case kSimulate:
		net := sh.simNet[a]
		if net == nil {
			var err error
			if net, err = buildSimNetwork(a, step); err != nil {
				return err
			}
			sh.simNet[a] = net
		}
		resp, err := simulateOn(ctx, a, net, req, step)
		if err != nil {
			return err
		}
		sh.nodeRounds += float64(a.N) * float64(resp.Rounds)
		return sh.encode(body, &serve.SimulateResponse{})
	case kFaultMetrics:
		if err := sh.metrics(ctx, a, false); err != nil {
			return err
		}
		dm, err := degradedSteps(ctx, a, req, step)
		if err != nil {
			return err
		}
		return step("serve.encode", func() error {
			memo, err := a.MetricsJSON(ctx, false)
			if err != nil {
				return err
			}
			var doc serve.MetricsDoc
			if err := json.Unmarshal(memo, &doc); err != nil {
				return err
			}
			doc.Degraded = dm
			return doc.WriteJSON(io.Discard)
		})
	}
	return nil
}

// metrics makes the fault-free metrics calls: on the first request per
// variant the diameter sweep and document assembly get their own spans;
// after that the handler serves the memoized body.
func (sh *shadow) metrics(ctx context.Context, a *serve.Artifact, withDiameter bool) error {
	bit := uint8(memoMetrics)
	if withDiameter {
		bit = memoMetricsD
	}
	if sh.memo[a]&bit == 0 {
		if withDiameter && sh.memo[a]&memoDiameter == 0 {
			if err := sh.tr.step("graph.diameter", func() error { _, err := a.Diameter(ctx); return err }); err != nil {
				return err
			}
			sh.memo[a] |= memoDiameter
		}
		if err := sh.tr.step("artifact.metrics", func() error { _, err := serve.ComputeMetrics(ctx, a, withDiameter); return err }); err != nil {
			return err
		}
		sh.memo[a] |= bit
	}
	return sh.tr.step("serve.encode", func() error { _, err := a.MetricsJSON(ctx, withDiameter); return err })
}

// encode times re-encoding the handler's response document.
func (sh *shadow) encode(body []byte, doc any) error {
	if err := json.Unmarshal(body, doc); err != nil {
		return err
	}
	return sh.tr.step("serve.encode", func() error { _, err := json.Marshal(doc); return err })
}

// buildSimNetwork makes the calls (*serve.Artifact).SimNetwork makes, with
// the CN families' table-router build as its own span.
func buildSimNetwork(a *serve.Artifact, step stepFn) (*netsim.Network, error) {
	const chipCap = 8.0
	var net *netsim.Network
	err := step("netsim.sim_network", func() error {
		var err error
		switch a.Params.Net {
		case "hsn", "hcn", "rcc":
			net, err = netsim.BuildSuperIPG(a.W, a.G, chipCap, nil)
		case "ring-cn", "complete-cn", "sfn":
			net, err = netsim.BuildSuperIPG(a.W, a.G, chipCap, netsim.HypercubeRouter{D: 1})
		case "hypercube":
			net, err = netsim.BuildHypercube(a.Params.Dim, a.Params.LogM, chipCap)
		case "torus":
			net, err = netsim.BuildTorus2D(a.Params.K, a.Params.Side, chipCap)
		default:
			err = fmt.Errorf("no simulator for %s", a.Params.Net)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	switch a.Params.Net {
	case "ring-cn", "complete-cn", "sfn":
		err = step("netsim.table_router", func() error {
			tr, err := netsim.NewTableRouter(net)
			net.Router = tr
			return err
		})
	}
	return net, err
}

// istPaths builds the k independent spanning trees and walks each path,
// as the multipath handler does.
func istPaths(ctx context.Context, a *serve.Artifact, req *request) error {
	k := req.k
	if m := a.MaxTrees(); k > m {
		k = m
	}
	tr, err := a.ISTrees(ctx, req.dst, k)
	if err != nil {
		return err
	}
	var buf []int32
	for t := 0; t < tr.K; t++ {
		if buf, err = tr.PathTo(t, req.src, buf[:0]); err != nil {
			return err
		}
	}
	return nil
}

// degradedSteps samples the fault set and runs the survivability sweep.
func degradedSteps(ctx context.Context, a *serve.Artifact, req *request, step stepFn) (*serve.DegradedMetrics, error) {
	mode, err := fault.ParseMode(req.fmode)
	if err != nil {
		return nil, err
	}
	spec := fault.Spec{Mode: mode, Count: req.faults, Seed: int64(req.fseed)}
	c := a.U.CSR()
	var dv *fault.DegradedView
	if err := step("fault.sample", func() error {
		set, err := fault.New(c, spec, a.ClusterIDs())
		if err != nil {
			return err
		}
		dv, err = fault.NewDegradedView(c, set)
		return err
	}); err != nil {
		return nil, err
	}
	var rep *fault.Report
	if err := step("fault.analyze", func() error {
		var err error
		rep, err = dv.WithClusters(a.ClusterIDs()).Analyze(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	return degradedDoc(spec, rep), nil
}

// replay is the traced run's result.
type replay struct {
	spans        []span
	requests     int     // window requests replayed
	handlerP50us float64 // median ServeHTTP time over the window requests
	hitRatio     float64
	tracedCPU    float64 // CPU ms per window request, traced
	untracedCPU  float64 // CPU ms per window request, untraced
	allocs       float64 // heap allocations per window request, untraced
	nodeRounds   float64
}

// tracedReplay replays prime then the window stream prefix in-process,
// once traced (until budget runs out or limit requests) and once untraced
// over the same prefix.
func tracedReplay(cfg serve.Config, s *stream, limit int, budget time.Duration) (*replay, error) {
	tr := &tracer{t0: time.Now(), root: -1}
	hcfg := cfg
	hcfg.Builder = func(ctx context.Context, p serve.Params, maxNodes int) (*serve.Artifact, error) {
		start := time.Now()
		a, err := serve.BuildArtifactThreshold(ctx, p, maxNodes, cfg.ImplicitThreshold)
		tr.add("artifact.build", start, time.Since(start))
		return a, err
	}
	srv := serve.NewServer(hcfg)
	sh := &shadow{
		cfg:    cfg,
		cache:  cache.New(cache.Config{MaxBytes: cfg.CacheBytes, Shards: cfg.CacheShards}),
		memo:   map[*serve.Artifact]uint8{},
		simNet: map[*serve.Artifact]*netsim.Network{},
		tr:     tr,
	}
	rec := &recorder{h: http.Header{}}
	var handlerDur []time.Duration
	one := func(r *request, window bool) error {
		hr := httpRequest(r)
		rec.reset()
		start := time.Now()
		tr.spans = append(tr.spans, span{req: tr.req, parent: -1, name: "serve.handler", start: start.Sub(tr.t0)})
		tr.root = len(tr.spans) - 1
		srv.ServeHTTP(rec, hr)
		d := time.Since(start)
		tr.spans[tr.root].dur = d
		if window {
			handlerDur = append(handlerDur, d)
		}
		want := http.StatusOK
		if r.etag != "" {
			want = http.StatusNotModified
		}
		if rec.code != want {
			return fmt.Errorf("in-process %s: status %d", r.path, rec.code)
		}
		err := sh.run(r, rec.body)
		tr.req++
		return err
	}
	for i := range s.prime {
		if err := one(&s.prime[i], false); err != nil {
			return nil, err
		}
	}
	st0 := srv.Cache().Stats()
	cpu0 := selfCPU()
	deadline := time.Now().Add(budget)
	n := 0
	for ; n < limit && (n == 0 || time.Now().Before(deadline)); n++ {
		r := s.gen(int64(n))
		if err := one(&r, true); err != nil {
			return nil, err
		}
	}
	rep := &replay{spans: tr.spans, requests: n, nodeRounds: sh.nodeRounds}
	rep.tracedCPU = (selfCPU() - cpu0) * 1000 / float64(n)
	st1 := srv.Cache().Stats()
	if lookups := (st1.Hits - st0.Hits) + (st1.Misses - st0.Misses); lookups > 0 {
		rep.hitRatio = float64(st1.Hits-st0.Hits) / float64(lookups)
	}
	rep.handlerP50us = float64(medianDur(handlerDur)) / float64(time.Microsecond)

	// Untraced: a fresh server, the same prime and prefix, requests built
	// before timing so only the handler's own work is counted.
	plainSrv := serve.NewServer(cfg)
	for i := range s.prime {
		rec.reset()
		plainSrv.ServeHTTP(rec, httpRequest(&s.prime[i]))
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		r := s.gen(int64(i))
		reqs[i] = httpRequest(&r)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 = selfCPU()
	for _, hr := range reqs {
		rec.reset()
		plainSrv.ServeHTTP(rec, hr)
	}
	rep.untracedCPU = (selfCPU() - cpu0) * 1000 / float64(n)
	runtime.ReadMemStats(&ms1)
	rep.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return rep, nil
}

// layerStat sums one layer's span durations.
type layerStat struct {
	count int
	total time.Duration
	durs  []time.Duration
}

// layers returns the per-layer sums and the unattributed fraction: root
// self time (duration minus children's) over all root time.
func (r *replay) layers() (map[string]layerStat, float64) {
	out := map[string]layerStat{}
	children := make(map[int]time.Duration)
	for _, sp := range r.spans {
		st := out[sp.name]
		st.count++
		st.total += sp.dur
		st.durs = append(st.durs, sp.dur)
		out[sp.name] = st
		if sp.parent >= 0 {
			children[sp.parent] += sp.dur
		}
	}
	var rootTotal, unattributed time.Duration
	for i, sp := range r.spans {
		if sp.parent >= 0 {
			continue
		}
		rootTotal += sp.dur
		if self := sp.dur - children[i]; self > 0 {
			unattributed += self
		}
	}
	frac := 0.0
	if rootTotal > 0 {
		frac = float64(unattributed) / float64(rootTotal)
	}
	return out, frac
}

// writeSpans dumps every span as CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,parent,name,start_ns,dur_ns")
	for _, sp := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", sp.req, sp.parent, sp.name, sp.start, sp.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanOf returns the mean span duration of a layer in the given unit.
func meanOf(ls map[string]layerStat, name string, unit time.Duration) float64 {
	st := ls[name]
	if st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / float64(unit)
}

// medianOf returns the median span duration of a layer in the given unit:
// for sub-microsecond calls the mean would mostly measure GC pauses that
// happen to land inside a span.
func medianOf(ls map[string]layerStat, name string, unit time.Duration) float64 {
	return float64(medianDur(ls[name].durs)) / float64(unit)
}

// medianDur returns the lower median of ds, 0 for none.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}
