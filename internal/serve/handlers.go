package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"time"

	"ipg/internal/fault"
	"ipg/internal/netsim"
	"ipg/internal/topo"
)

// API handlers.  Each returns an error instead of writing its own failure
// body; instrument() maps the error to a JSON {"error": ...} response and
// the right status code.  A handler must not write anything before it is
// certain it will not return an error.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeStaticJSON(w, http.StatusOK, healthzBody, healthzLen)
}

func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	open, halfOpen, opens := s.breaker.States(time.Now())
	s.metrics.WriteProm(w, s.cache.Stats(), breakerStats{open: open, halfOpen: halfOpen, opens: opens}, s.clusterPromStats())
}

// requestQuery decodes r's query in its one pass and validates the family
// parameters; the handler reads its endpoint parameters from the result.
func requestQuery(r *http.Request) (query, error) {
	q := decodeQuery(r.URL.RawQuery)
	err := q.err
	if err == nil {
		err = q.p.CheckProvided(q.prov)
	}
	if err != nil {
		return q, badRequest("%v", err)
	}
	return q, nil
}

// BuildResponse is the /v1/build reply.
type BuildResponse struct {
	Network        string `json:"network"`
	Key            string `json:"key"`
	Nodes          int    `json:"nodes"`
	Links          *int   `json:"links,omitempty"`
	Materialized   bool   `json:"materialized"`
	Representation string `json:"representation"` // csr | implicit | skeleton
	Cached         bool   `json:"cached"`
	SizeBytes      int64  `json:"size_bytes"`
	BuildMillis    int64  `json:"build_ms"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) error {
	q, err := requestQuery(r)
	if err != nil {
		return err
	}
	p := q.p
	if handled, err := s.maybeForward(w, r, p, ""); handled || err != nil {
		return err
	}
	start := time.Now()
	a, hit, err := s.getArtifact(r.Context(), p)
	if err != nil {
		return err
	}
	resp := BuildResponse{
		Network:        a.Name,
		Key:            p.Key(),
		Nodes:          a.N,
		Materialized:   a.Materialized(),
		Representation: a.Rep(),
		Cached:         hit,
		SizeBytes:      a.SizeBytes(),
		BuildMillis:    time.Since(start).Milliseconds(),
	}
	if a.Materialized() {
		links := a.U.M()
		resp.Links = &links
	}
	return writeJSON(w, &resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	q, err := requestQuery(r)
	if err != nil {
		return err
	}
	p := q.p
	withDiameter := queryBool(&q, qDiameter)
	fq, err := parseFaultQuery(&q)
	if err != nil {
		return err
	}
	// Fault-free metric documents are memoized and byte-stable, so
	// non-owners may cache the fetched body; degraded requests are
	// per-request computations and forward uncached.
	bodyKey := ""
	if fq == nil && s.cfg.Cluster != nil {
		bodyKey = fillBodyKey(p, withDiameter)
	}
	if handled, err := s.maybeForward(w, r, p, bodyKey); handled || err != nil {
		return err
	}
	a, _, err := s.getArtifact(r.Context(), p)
	if err != nil {
		return err
	}
	sb, err := a.metricsBody(r.Context(), withDiameter)
	if err != nil {
		return err
	}
	if fq == nil {
		// The memoized body is immutable and byte-stable, so its content
		// hash is a strong validator: revalidating pollers get a bodyless
		// 304 instead of the full document.
		h := w.Header()
		h["Etag"] = sb.etag
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, sb.etag[0]) {
			w.WriteHeader(http.StatusNotModified)
			return nil
		}
		writeStaticJSON(w, http.StatusOK, sb.body, sb.clen)
		return nil
	}
	// Degraded request: re-decode the memoized document, attach a freshly
	// computed survivability block, and encode per request.  The sweep is
	// CPU-bound like a build, so it holds a worker slot.
	dm, err := s.degradedMetrics(r, a, fq)
	if err != nil {
		return err
	}
	var doc MetricsDoc
	if err := json.Unmarshal(sb.body, &doc); err != nil {
		return fmt.Errorf("serve: re-decoding memoized metrics: %w", err)
	}
	doc.Degraded = dm
	w.Header().Set("Content-Type", "application/json")
	return doc.WriteJSON(w)
}

// degradedMetrics samples fq's fault set over the artifact's CSR and runs
// the masked survivability sweep under a worker slot.
func (s *Server) degradedMetrics(r *http.Request, a *Artifact, fq *faultQuery) (*DegradedMetrics, error) {
	if !a.Materialized() {
		return nil, badRequest("%s is not materialized; no degraded metrics", a.Name)
	}
	release, err := s.acquireSlot(r.Context())
	if err != nil {
		return nil, err
	}
	defer release()
	c := a.U.CSR()
	clusterOf := a.ClusterIDs()
	set, err := fault.New(c, fq.Spec, clusterOf)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	dv, err := fault.NewDegradedView(c, set)
	if err != nil {
		return nil, err
	}
	rep, err := dv.WithClusters(clusterOf).Analyze(r.Context())
	if err != nil {
		return nil, err
	}
	return &DegradedMetrics{
		Mode:             string(fq.Spec.Mode),
		Count:            fq.Spec.Count,
		Seed:             fq.Spec.Seed,
		Alive:            rep.Alive,
		FailedNodes:      rep.FailedVertices,
		FailedLinks:      rep.FailedEdges,
		FailedChips:      rep.FailedChips,
		Components:       rep.Components,
		LargestComponent: rep.LargestComponent,
		Diameter:         rep.Diameter,
		AvgDistance:      rep.AvgDistance,
		GiantDiameter:    rep.GiantDiameter,
		GiantAvgDistance: rep.GiantAvgDistance,
		ChipsTotal:       rep.ChipsTotal,
		ChipsDead:        rep.ChipsDead,
		ChipsReachable:   rep.ChipsReachable,
	}, nil
}

// RouteResponse is the /v1/route reply: a shortest path in the
// materialized undirected network, plus — when ?multipath=k is set —
// the k node-disjoint independent-spanning-tree routes to dst.
type RouteResponse struct {
	Network   string          `json:"network"`
	Src       int             `json:"src"`
	Dst       int             `json:"dst"`
	Hops      int             `json:"hops"`
	Path      []int           `json:"path"`
	Labels    []string        `json:"labels,omitempty"` // node labels along the path (super-IPG families)
	Multipath *MultipathRoute `json:"multipath,omitempty"`
}

// MultipathPath is one independent-tree route src -> dst.
type MultipathPath struct {
	Tree  int   `json:"tree"`
	Hops  int   `json:"hops"`
	Path  []int `json:"path"`
	Alive *bool `json:"alive,omitempty"` // set only when fault params are present
}

// MultipathRoute is the ?multipath=k block: k pairwise internally
// node-disjoint (and edge-disjoint) routes from src to dst over the
// healthy topology.  With fault parameters, each path is annotated with
// whether it survives the sampled failures, and Delivered reports
// whether at least one does — guaranteed whenever faults < k.
type MultipathRoute struct {
	Requested int             `json:"requested"` // k the client asked for
	K         int             `json:"k"`         // trees actually built (topology bound)
	Disjoint  bool            `json:"disjoint"`  // response-level disjointness self-check
	Paths     []MultipathPath `json:"paths"`
	Delivered *bool           `json:"delivered,omitempty"` // set only when fault params are present
	Faults    *SimFaults      `json:"faults,omitempty"`
}

// multipathMaxK bounds the ?multipath parameter; no supported family
// exceeds this tree count.
const multipathMaxK = 64

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) error {
	q, err := requestQuery(r)
	if err != nil {
		return err
	}
	p := q.p
	src, err := queryInt(&q, qSrc, 0)
	if err != nil {
		return err
	}
	dst, err := queryInt(&q, qDst, 0)
	if err != nil {
		return err
	}
	multipath, err := queryInt(&q, qMultipath, 0)
	if err != nil {
		return err
	}
	if multipath < 0 || multipath > multipathMaxK {
		return badRequest("parameter \"multipath\" must be in [0, %d], got %d", multipathMaxK, multipath)
	}
	var fq *faultQuery
	if multipath > 0 {
		if fq, err = parseFaultQuery(&q); err != nil {
			return err
		}
		if fq != nil && fq.Spec.Mode == fault.Adversarial {
			return badRequest("adversarial faults target graph cuts; use the degraded metrics endpoint, not multipath routes")
		}
	}
	if handled, err := s.maybeForward(w, r, p, ""); handled || err != nil {
		return err
	}
	a, _, err := s.getArtifact(r.Context(), p)
	if err != nil {
		return err
	}
	if a.Source() == nil {
		return badRequest("%s has no adjacency representation (label-level skeleton); no concrete routes", a.Name)
	}
	if src < 0 || src >= a.N || dst < 0 || dst >= a.N {
		return badRequest("src/dst must be in [0, %d)", a.N)
	}
	if multipath > 0 && !a.Materialized() {
		return badRequest("%s is not materialized; multipath routes need the built network", a.Name)
	}
	if !a.Materialized() {
		if a.N > implicitSweepMax {
			return badRequest("%s has %d nodes, above the implicit route cap %d", a.Name, a.N, implicitSweepMax)
		}
		// An implicit route regenerates every visited row from the codec
		// — CPU-bound like a build, so it holds a worker slot.
		release, err := s.acquireSlot(r.Context())
		if err != nil {
			return err
		}
		defer release()
	}
	path, err := shortestPath(r.Context(), a, src, dst)
	if err != nil {
		return err
	}
	resp := RouteResponse{
		Network: a.Name,
		Src:     src,
		Dst:     dst,
		Hops:    len(path) - 1,
		Path:    path,
	}
	if a.Super() {
		if resp.Labels, err = a.routeLabels(path); err != nil {
			return err
		}
	}
	if multipath > 0 {
		mp, err := s.multipathRoute(r, a, src, dst, multipath, fq)
		if err != nil {
			return err
		}
		resp.Multipath = mp
		s.metrics.multipathRoutes.Add(1)
	}
	return writeJSON(w, &resp)
}

// multipathRoute builds the ?multipath=k response block on a materialized
// artifact: the k independent-tree routes src -> dst (k clamped to what
// the topology supports), annotated with the fault set fq when non-nil.
// handleRoute validates fq and the representation before any slot or BFS.
// Tree construction is CPU-bound like a build, so it holds a worker slot.
func (s *Server) multipathRoute(r *http.Request, a *Artifact, src, dst, requested int, fq *faultQuery) (*MultipathRoute, error) {
	release, err := s.acquireSlot(r.Context())
	if err != nil {
		return nil, err
	}
	defer release()
	k := requested
	if max := a.MaxTrees(); k > max {
		k = max
	}
	tr, err := a.ISTrees(r.Context(), dst, k)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, badRequest("%v", err)
	}
	mp := &MultipathRoute{Requested: requested, K: tr.K, Paths: make([]MultipathPath, tr.K)}
	var buf []int32
	for t := 0; t < tr.K; t++ {
		buf, err = tr.PathTo(t, src, buf[:0])
		if err != nil {
			return nil, err
		}
		path := make([]int, len(buf))
		//lint:ignore ctxflow copies one root path, at most N entries, inside a slot-bounded request
		for i, v := range buf {
			path[i] = int(v)
		}
		mp.Paths[t] = MultipathPath{Tree: t, Hops: len(path) - 1, Path: path}
	}
	mp.Disjoint = multipathDisjoint(mp.Paths, src, dst)
	if fq != nil {
		set, err := fault.New(a.U.CSR(), fq.Spec, a.ClusterIDs())
		if err != nil {
			return nil, badRequest("%v", err)
		}
		mp.Faults = &SimFaults{
			Mode:      string(fq.Spec.Mode),
			Count:     fq.Spec.Count,
			Seed:      fq.Spec.Seed,
			DeadNodes: len(set.DeadVertices),
			DeadLinks: len(set.DeadEdges),
			DeadChips: len(set.DeadChips),
		}
		delivered := false
		for t := range mp.Paths {
			alive := pathAlive(a.U.CSR(), set, mp.Paths[t].Path)
			mp.Paths[t].Alive = &alive
			delivered = delivered || alive
		}
		mp.Delivered = &delivered
	}
	return mp, nil
}

// multipathDisjoint is the response-level self-check: the tree paths
// must share no internal vertex and no edge (they meet only at src and
// dst).  O(total path length).
func multipathDisjoint(paths []MultipathPath, src, dst int) bool {
	internals := make(map[int]bool, 64)
	edges := make(map[[2]int]bool, 64)
	for _, p := range paths {
		for i, v := range p.Path {
			if v != src && v != dst {
				if internals[v] {
					return false
				}
				internals[v] = true
			}
			if i+1 < len(p.Path) {
				a, b := v, p.Path[i+1]
				if a > b {
					a, b = b, a
				}
				e := [2]int{a, b}
				if edges[e] {
					return false
				}
				edges[e] = true
			}
		}
	}
	return true
}

// pathAlive reports whether every vertex and every hop of path survives
// the fault set (both directions of a failed link are masked, so one
// directional arc check per hop suffices).
func pathAlive(c *topo.CSR, set *fault.Set, path []int) bool {
	for i, v := range path {
		if set.VertexDead(v) {
			return false
		}
		if i+1 == len(path) {
			break
		}
		first := c.RowStart(v)
		hopAlive := false
		for j, w := range c.Row(v) {
			if int(w) == path[i+1] && !topo.Bit(set.ADead, first+j) {
				hopAlive = true
				break
			}
		}
		if !hopAlive {
			return false
		}
	}
	return true
}

// shortestPath returns the route src -> dst from topo's bidirectional
// search over the artifact's adjacency source: a materialized CSR reads
// arena rows in place, an implicit artifact regenerates rows from its
// codec.  The search checks ctx once per level, so a cancelled or
// timed-out request frees its worker slot within one level.  Its labels,
// queue and neighbor buffer come from the shared topo scratch pool, so
// the search itself allocates only the response path.
func shortestPath(ctx context.Context, a *Artifact, src, dst int) ([]int, error) {
	source := a.Source()
	s := topo.GetScratch(source.N())
	defer topo.PutScratch(s)
	path, err := topo.ShortestPath(ctx, source, src, dst, s)
	if errors.Is(err, topo.ErrNoPath) {
		return nil, badRequest("no path from %d to %d (disconnected?)", src, dst)
	}
	return path, err
}

// SimFaults echoes the fault scenario a degraded simulation ran under.
type SimFaults struct {
	Mode      string `json:"mode"`
	Count     int    `json:"count"`
	Seed      int64  `json:"seed"`
	Routing   string `json:"routing,omitempty"` // aware | oblivious (simulate); empty on route echoes
	DeadNodes int    `json:"dead_nodes,omitempty"`
	DeadLinks int    `json:"dead_links,omitempty"`
	DeadChips int    `json:"dead_chips,omitempty"`
}

// SimulateResponse is the /v1/simulate reply.  How its packet counts
// relate depends on the workload.  te and transpose run from an empty
// network until every packet is delivered or dropped, so for them
// injected = delivered + dropped.  The random workload counts only its
// measurement window: a packet injected during warmup and delivered in
// the window counts as delivered but not as injected, so the window
// satisfies
//
//	in-flight(end) = in-flight(start) + injected - delivered - dropped.
type SimulateResponse struct {
	Network   string     `json:"network"`
	Workload  string     `json:"workload"`
	Nodes     int        `json:"nodes"`
	Rounds    int        `json:"rounds"`
	Injected  int64      `json:"injected"`
	Delivered int64      `json:"delivered"`
	Dropped   int64      `json:"dropped,omitempty"`
	Retried   int64      `json:"retried,omitempty"`
	Latency   float64    `json:"latency_rounds"`
	OffChip   float64    `json:"off_chip_per_packet"`
	Accepted  float64    `json:"accepted,omitempty"`  // random workload only
	Saturated *bool      `json:"saturated,omitempty"` // random workload only
	Faults    *SimFaults `json:"faults,omitempty"`
}

// SimMaxRounds caps warmup+measure of a /v1/simulate query.  With
// SimMaxNodes it bounds a random run's round loop before the request takes
// a worker slot, so no query can hold one until the request deadline.
const SimMaxRounds = 4096

// SimMaxRate caps the random workload's injection rate in packets per node
// per round, which is also the per-node work of one injection round.  The
// repository's largest saturation sweep (E15 at paper scale) stops at 6.0,
// and the best family it measures, HSN(3,Q4), saturates near 4.25.
const SimMaxRate = 8.0

// SimMaxPackets caps the packets one /v1/simulate run injects —
// rate·N·(warmup+measure) for random, N·(N−1) for te — because a packet
// the network cannot absorb stays queued: at about 22 bytes per queued
// packet the cap bounds a run's queues near 90 MiB.  The defaults (rate
// 0.2, 450 rounds) stay under it up to 8192 nodes, te up to 2048.
const SimMaxPackets = 1 << 22

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	q, err := requestQuery(r)
	if err != nil {
		return err
	}
	p := q.p
	workload := q.vals[qWorkload]
	switch workload {
	case "":
		workload = "random"
	case "random", "te", "transpose":
	default:
		return badRequest("unknown workload %q (random|te|transpose)", workload)
	}
	rate, err := queryFloat(&q, qRate, 0.2)
	if err != nil {
		return err
	}
	chipCap, err := queryFloat(&q, qChipCap, 8.0)
	if err != nil {
		return err
	}
	seed, err := queryInt(&q, qSeed, 1)
	if err != nil {
		return err
	}
	warmup, err := queryInt(&q, qWarmup, 150)
	if err != nil {
		return err
	}
	measure, err := queryInt(&q, qMeasure, 300)
	if err != nil {
		return err
	}
	// rate and chipcap parse as floats, so NaN and ±Inf reach here; NaN
	// fails every comparison below and must be refused explicitly.
	if math.IsNaN(rate) || math.IsInf(rate, 0) || math.IsNaN(chipCap) || math.IsInf(chipCap, 0) {
		return badRequest("rate and chipcap must be finite numbers")
	}
	if rate <= 0 || chipCap <= 0 || warmup < 0 || measure <= 0 {
		return badRequest("rate and chipcap must be positive, warmup >= 0, measure > 0")
	}
	if rate > SimMaxRate {
		return badRequest("rate %g exceeds the simulation cap of %g packets/node/round", rate, SimMaxRate)
	}
	if measure > SimMaxRounds || warmup > SimMaxRounds-measure {
		return badRequest("warmup %d + measure %d rounds exceeds the simulation cap of %d rounds", warmup, measure, SimMaxRounds)
	}
	fq, err := parseFaultQuery(&q)
	if err != nil {
		return err
	}
	if fq != nil && fq.Spec.Count > 0 && fq.Spec.Mode == fault.Adversarial {
		return badRequest("adversarial faults target graph cuts and have no port-level analogue; use /v1/metrics with fmode=adversarial")
	}
	if handled, err := s.maybeForward(w, r, p, ""); handled || err != nil {
		return err
	}

	a, _, err := s.getArtifact(r.Context(), p)
	if err != nil {
		return err
	}
	if !a.Materialized() {
		return badRequest("%s is not materialized; cannot simulate", a.Name)
	}
	if a.N > s.cfg.SimMaxNodes {
		return badRequest("%s has %d nodes, above the simulation cap %d", a.Name, a.N, s.cfg.SimMaxNodes)
	}
	if workload == "transpose" {
		if _, err := transposeBits(a); err != nil {
			return err
		}
	}
	packets := float64(a.N) // transpose: one packet per node
	switch workload {
	case "random":
		packets = rate * float64(a.N) * float64(warmup+measure)
	case "te":
		packets = float64(a.N) * float64(a.N-1)
	}
	if packets > SimMaxPackets {
		return badRequest("%s workload on %s injects %.0f packets, above the simulation cap of %d packets", workload, a.Name, packets, SimMaxPackets)
	}

	// Simulation runs are CPU-bound like builds, so they hold a worker
	// slot (and see the same 503 backpressure when the pool is full).
	release, err := s.acquireSlot(r.Context())
	if err != nil {
		return err
	}
	defer release()

	sim := Simulation{Workload: workload, Seed: int64(seed), Rate: rate, Warmup: warmup, Measure: measure, ChipCap: chipCap}
	if fq != nil {
		sim.Faults, sim.Routing = fq.Spec, fq.Routing
	}
	net, echo, err := sim.Network(a)
	if err != nil {
		return err
	}
	resp, _, err := sim.Run(r.Context(), a, net)
	if err != nil {
		return err
	}
	resp.Faults = echo
	return writeJSON(w, resp)
}

// Simulation is one packet-level run on an artifact's simulator network:
// the workload with its knobs and seed, and the fault scenario that
// degrades the network first.  /v1/simulate and ipgsim both run through
// it, so they answer identically for the same seed.
type Simulation struct {
	Workload        string     // random | te | transpose
	Seed            int64      // traffic seed
	Rate            float64    // injection rate, packets/node/round (random)
	Warmup, Measure int        // rounds (random)
	ChipCap         float64    // off-chip budget per chip, packets/round
	Faults          fault.Spec // Count 0 runs the healthy network
	Routing         string     // aware | oblivious: how a degraded network routes
}

// maxDrainRounds bounds the te and transpose runs, which step until every
// packet is delivered or dropped.
const maxDrainRounds = 1 << 20

// Network returns the network s runs on — a's memoized simulator network
// for s.ChipCap, degraded by s.Faults with the fault-aware router when
// s.Routing is "aware" — and the fault echo, nil on a healthy network.
func (s *Simulation) Network(a *Artifact) (*netsim.Network, *SimFaults, error) {
	net, err := a.SimNetwork(s.ChipCap)
	if err != nil || s.Faults.Count == 0 {
		return net, nil, asBadRequest(err)
	}
	dnet, sum, err := netsim.Degrade(net, s.Faults)
	if err != nil {
		return nil, nil, asBadRequest(err)
	}
	if s.Routing == "aware" {
		far, err := netsim.NewFaultAwareRouter(dnet)
		if err != nil {
			return nil, nil, asBadRequest(err)
		}
		dnet.Router = far
	}
	return dnet, &SimFaults{
		Mode:      string(sum.Mode),
		Count:     s.Faults.Count,
		Seed:      s.Faults.Seed,
		Routing:   s.Routing,
		DeadNodes: len(sum.DeadNodes),
		DeadLinks: len(sum.DeadLinks),
		DeadChips: len(sum.DeadChips),
	}, nil
}

// Run runs s's workload on net (from s.Network) and returns the response
// document, without the fault echo, and the run's raw counters.
func (s *Simulation) Run(ctx context.Context, a *Artifact, net *netsim.Network) (*SimulateResponse, netsim.Stats, error) {
	resp := &SimulateResponse{Network: a.Name, Workload: s.Workload, Nodes: a.N}
	var res netsim.DrainResult
	var err error
	switch s.Workload {
	case "random":
		var rr netsim.RandomResult
		if rr, err = netsim.RunRandomUniformCtx(ctx, net, s.Seed, s.Rate, s.Warmup, s.Measure); err == nil {
			res = netsim.DrainResult{Rounds: rr.Stats.Rounds, Stats: rr.Stats}
			resp.Accepted, resp.Saturated = rr.Accepted, &rr.Saturated
		}
	case "te":
		res, err = netsim.RunTotalExchangeCtx(ctx, net, s.Seed, maxDrainRounds)
	case "transpose":
		var perm []int32
		if perm, err = transposePerm(a); err == nil {
			res, err = netsim.RunPermutationCtx(ctx, net, s.Seed, perm, maxDrainRounds)
		}
	default:
		err = badRequest("unknown workload %q (random|te|transpose)", s.Workload)
	}
	if err != nil {
		return nil, res.Stats, err
	}
	st := res.Stats
	resp.Rounds, resp.Injected, resp.Delivered, resp.Dropped, resp.Retried = res.Rounds, st.Injected, st.Delivered, st.Dropped, st.Retried
	resp.Latency, resp.OffChip = st.AvgLatency(), st.OffChipPerPacket()
	return resp, st, nil
}

// transposeBits returns the address width of a's matrix transposition,
// which needs a power-of-two node count with an even number of address
// bits.
func transposeBits(a *Artifact) (int, error) {
	logN := bits.TrailingZeros(uint(a.N))
	if 1<<logN != a.N || logN%2 != 0 {
		return 0, badRequest("transpose needs a power-of-two node count with an even number of address bits; %s has %d nodes", a.Name, a.N)
	}
	return logN, nil
}

// transposePerm returns the matrix transposition as a permutation of a's
// simulator node ids, which are addresses in every family.
func transposePerm(a *Artifact) ([]int32, error) {
	logN, err := transposeBits(a)
	if err != nil {
		return nil, err
	}
	tp, err := netsim.Transpose(logN)
	return tp, asBadRequest(err)
}

// queryInt reads endpoint parameter i of q as an integer, def when unset.
func queryInt(q *query, i int, def int) (int, error) {
	v := q.vals[i]
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("parameter %q: bad integer %q", endpointParams[i], v)
	}
	return n, nil
}

// queryFloat reads endpoint parameter i of q as a float, def when unset.
func queryFloat(q *query, i int, def float64) (float64, error) {
	v := q.vals[i]
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badRequest("parameter %q: bad number %q", endpointParams[i], v)
	}
	return f, nil
}

// queryBool reports whether endpoint parameter i of q is set to a truthy
// value.
func queryBool(q *query, i int) bool {
	switch q.vals[i] {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
