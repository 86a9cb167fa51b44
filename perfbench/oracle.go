package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"ipg/internal/fault"
	"ipg/internal/netsim"
	"ipg/internal/serve"
	"ipg/internal/topo"
)

// library builds artifacts in-process with the daemon's representation
// policy, once per key, for the output oracle.
type library struct {
	maxNodes, implicitOver int

	mu        sync.Mutex
	artifacts map[string]*serve.Artifact
}

func newLibrary(cfg serve.Config) *library {
	return &library{maxNodes: cfg.MaxNodes, implicitOver: cfg.ImplicitThreshold, artifacts: map[string]*serve.Artifact{}}
}

func (l *library) artifact(q string) (*serve.Artifact, error) {
	l.mu.Lock()
	a := l.artifacts[q]
	l.mu.Unlock()
	if a != nil {
		return a, nil
	}
	p, err := parseParams(q)
	if err != nil {
		return nil, err
	}
	a, err = serve.BuildArtifactThreshold(context.Background(), p, l.maxNodes, l.implicitOver)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if prev := l.artifacts[q]; prev != nil {
		a = prev
	} else {
		l.artifacts[q] = a
	}
	l.mu.Unlock()
	return a, nil
}

// oracleReport counts checked responses per class and the mismatches.
type oracleReport struct {
	checked    map[string]int
	mismatches int
	firstErr   error
}

// checkAll verifies every kept response against the library, on two
// goroutines (the daemon is idle by now).  className maps a class index to
// its name; priming requests carry class -1.
func checkAll(lib *library, rs []*response, className func(int) string, etags map[string]string) *oracleReport {
	rep := &oracleReport{checked: map[string]int{}}
	var mu sync.Mutex
	work := make(chan *response)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				err := check(lib, r, etags)
				mu.Lock()
				rep.checked[className(r.req.class)]++
				if err != nil {
					rep.mismatches++
					if rep.firstErr == nil {
						rep.firstErr = fmt.Errorf("%s: %w", r.req.path, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range rs {
		work <- r
	}
	close(work)
	wg.Wait()
	return rep
}

// check compares one daemon answer with the in-process library answer.
func check(lib *library, r *response, etags map[string]string) error {
	req := &r.req
	if req.etag != "" {
		// A revalidation: 304 with the validator of the body the oracle
		// already checked while priming.
		if r.status != 304 || r.etag != req.etag || etags[req.path] != req.etag {
			return fmt.Errorf("revalidation: status %d etag %q, want 304 %q", r.status, r.etag, req.etag)
		}
		return nil
	}
	if r.status != 200 {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if req.kind == kHealthz {
		if string(r.body) != "{\"status\":\"ok\"}\n" {
			return fmt.Errorf("healthz body %q", r.body)
		}
		return nil
	}
	a, err := lib.artifact(req.q)
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch req.kind {
	case kBuild:
		var b serve.BuildResponse
		if err := json.Unmarshal(r.body, &b); err != nil {
			return err
		}
		if b.Nodes != a.N || b.Representation != a.Rep() || b.Network != a.Name {
			return fmt.Errorf("build: got %s/%d/%s, want %s/%d/%s", b.Network, b.Nodes, b.Representation, a.Name, a.N, a.Rep())
		}
	case kMetrics:
		want, err := a.MetricsJSON(ctx, req.diameter)
		if err != nil {
			return err
		}
		if !bytes.Equal(r.body, want) {
			return fmt.Errorf("metrics body differs from MetricsJSON")
		}
	case kRoute:
		return checkRoute(a, req, r.body)
	case kMultipath:
		return checkMultipath(ctx, a, req, r.body)
	case kSimulate:
		var got serve.SimulateResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		want, err := simulate(ctx, a, req)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(&got, want) {
			return fmt.Errorf("simulate: got %+v, want %+v", got, *want)
		}
	case kFaultMetrics:
		want, err := faultMetricsBody(ctx, a, req)
		if err != nil {
			return err
		}
		if !bytes.Equal(r.body, want) {
			return fmt.Errorf("degraded metrics body differs")
		}
	}
	return nil
}

// checkRoute: the path runs src to dst over adjacent vertices and is as
// long as the BFS distance.
func checkRoute(a *serve.Artifact, req *request, body []byte) error {
	var got serve.RouteResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	src := a.Source()
	s := topo.GetScratch(src.N())
	defer topo.PutScratch(s)
	_, _, s.Nbuf = topo.BFSSourceInto(src, req.src, s.Dist, s.Queue, s.NeighborBuf(src.DegreeBound()))
	dist := int(s.Dist[req.dst])
	if got.Src != req.src || got.Dst != req.dst || got.Hops != dist || len(got.Path) != dist+1 {
		return fmt.Errorf("route: %d hops over %d vertices, BFS distance %d", got.Hops, len(got.Path), dist)
	}
	if got.Path[0] != req.src || got.Path[dist] != req.dst {
		return fmt.Errorf("route endpoints %d..%d", got.Path[0], got.Path[dist])
	}
	if err := adjacentPath(src, got.Path, s); err != nil {
		return err
	}
	if a.Super() {
		if len(got.Labels) != len(got.Path) {
			return fmt.Errorf("route: %d labels for %d vertices", len(got.Labels), len(got.Path))
		}
		for i, v := range got.Path {
			var want string
			if a.G != nil {
				want = a.G.Label(v).GroupedString(a.W.SymbolLen())
			} else {
				l, err := a.W.LabelOf(v)
				if err != nil {
					return err
				}
				want = l.GroupedString(a.W.SymbolLen())
			}
			if got.Labels[i] != want {
				return fmt.Errorf("route label %d: %q, want %q", i, got.Labels[i], want)
			}
		}
	}
	return nil
}

func adjacentPath(src topo.Source, path []int, s *topo.Scratch) error {
	for i := 0; i+1 < len(path); i++ {
		s.Nbuf = src.NeighborsInto(path[i], s.Nbuf[:0])
		found := false
		for _, w := range s.Nbuf {
			if int(w) == path[i+1] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("hop %d->%d is not an edge", path[i], path[i+1])
		}
	}
	return nil
}

// checkMultipath: the shortest path as for a route, plus the k tree paths
// equal to the library's independent spanning trees.
func checkMultipath(ctx context.Context, a *serve.Artifact, req *request, body []byte) error {
	if err := checkRoute(a, req, body); err != nil {
		return err
	}
	var got serve.RouteResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	k := req.k
	if m := a.MaxTrees(); k > m {
		k = m
	}
	tr, err := a.ISTrees(ctx, req.dst, k)
	if err != nil {
		return err
	}
	mp := got.Multipath
	if mp == nil || mp.Requested != req.k || mp.K != tr.K || !mp.Disjoint || len(mp.Paths) != tr.K {
		return fmt.Errorf("multipath block %+v, want %d trees", mp, tr.K)
	}
	var buf []int32
	for t := 0; t < tr.K; t++ {
		if buf, err = tr.PathTo(t, req.src, buf[:0]); err != nil {
			return err
		}
		p := mp.Paths[t]
		if p.Tree != t || p.Hops != len(buf)-1 || len(p.Path) != len(buf) {
			return fmt.Errorf("multipath tree %d: %d hops, want %d", t, p.Hops, len(buf)-1)
		}
		for i, v := range buf {
			if p.Path[i] != int(v) {
				return fmt.Errorf("multipath tree %d differs at hop %d", t, i)
			}
		}
	}
	return nil
}

// simulate answers a /v1/simulate request in-process with the same netsim
// calls and seeds the handler uses.
func simulate(ctx context.Context, a *serve.Artifact, req *request) (*serve.SimulateResponse, error) {
	net, err := a.SimNetwork(8.0)
	if err != nil {
		return nil, err
	}
	return simulateOn(ctx, a, net, req, plain)
}

// simulateOn degrades net as the request asks, runs its workload, and
// assembles the handler's response document.
func simulateOn(ctx context.Context, a *serve.Artifact, net *netsim.Network, req *request, step stepFn) (*serve.SimulateResponse, error) {
	resp := &serve.SimulateResponse{Network: a.Name, Workload: req.simWorkload, Nodes: a.N}
	if req.faults > 0 {
		mode, err := fault.ParseMode(req.fmode)
		if err != nil {
			return nil, err
		}
		spec := fault.Spec{Mode: mode, Count: req.faults, Seed: int64(req.fseed)}
		var dnet *netsim.Network
		var sum *netsim.FaultSummary
		if err := step("netsim.degrade", func() error {
			var err error
			dnet, sum, err = netsim.Degrade(net, spec)
			return err
		}); err != nil {
			return nil, err
		}
		if req.routing == "aware" {
			if err := step("netsim.fault_router", func() error {
				far, err := netsim.NewFaultAwareRouter(dnet)
				dnet.Router = far
				return err
			}); err != nil {
				return nil, err
			}
		}
		net = dnet
		resp.Faults = &serve.SimFaults{Mode: string(sum.Mode), Count: req.faults, Seed: int64(req.fseed), Routing: req.routing,
			DeadNodes: len(sum.DeadNodes), DeadLinks: len(sum.DeadLinks), DeadChips: len(sum.DeadChips)}
	}
	err := step("netsim.run", func() error { return runWorkload(ctx, a, net, req, resp) })
	return resp, err
}

func runWorkload(ctx context.Context, a *serve.Artifact, net *netsim.Network, req *request, resp *serve.SimulateResponse) error {
	seed := int64(req.simSeed)
	switch req.simWorkload {
	case "random":
		res, err := netsim.RunRandomUniformCtx(ctx, net, seed, req.simRate, req.warmup, req.measure)
		if err != nil {
			return err
		}
		resp.Rounds, resp.Injected, resp.Delivered = res.Stats.Rounds, res.Stats.Injected, res.Stats.Delivered
		resp.Dropped, resp.Retried = res.Stats.Dropped, res.Stats.Retried
		resp.Latency, resp.OffChip, resp.Accepted = res.Latency, res.Stats.OffChipPerPacket(), res.Accepted
		resp.Saturated = &res.Saturated
	case "te", "transpose":
		const maxDrainRounds = 1 << 20
		var res netsim.DrainResult
		var err error
		if req.simWorkload == "te" {
			res, err = netsim.RunTotalExchangeCtx(ctx, net, seed, maxDrainRounds)
		} else {
			logN := 0
			for 1<<logN < a.N {
				logN++
			}
			var perm []int32
			if perm, err = netsim.Transpose(logN); err == nil {
				res, err = netsim.RunPermutationCtx(ctx, net, seed, perm, maxDrainRounds)
			}
		}
		if err != nil {
			return err
		}
		resp.Rounds, resp.Injected, resp.Delivered = res.Rounds, res.Stats.Injected, res.Stats.Delivered
		resp.Dropped, resp.Retried = res.Stats.Dropped, res.Stats.Retried
		resp.Latency, resp.OffChip = res.Stats.AvgLatency(), res.Stats.OffChipPerPacket()
	default:
		return fmt.Errorf("unknown simulate workload %q", req.simWorkload)
	}
	return nil
}

// faultMetricsBody rebuilds a degraded /v1/metrics document: the memoized
// fault-free document plus a survivability block from the same fault
// sample and sweep.
func faultMetricsBody(ctx context.Context, a *serve.Artifact, req *request) ([]byte, error) {
	memo, err := a.MetricsJSON(ctx, false)
	if err != nil {
		return nil, err
	}
	var doc serve.MetricsDoc
	if err := json.Unmarshal(memo, &doc); err != nil {
		return nil, err
	}
	dm, err := degradedSteps(ctx, a, req, plain)
	if err != nil {
		return nil, err
	}
	doc.Degraded = dm
	var buf bytes.Buffer
	err = doc.WriteJSON(&buf)
	return buf.Bytes(), err
}

func degradedDoc(spec fault.Spec, rep *fault.Report) *serve.DegradedMetrics {
	return &serve.DegradedMetrics{
		Mode: string(spec.Mode), Count: spec.Count, Seed: spec.Seed,
		Alive: rep.Alive, FailedNodes: rep.FailedVertices, FailedLinks: rep.FailedEdges, FailedChips: rep.FailedChips,
		Components: rep.Components, LargestComponent: rep.LargestComponent,
		Diameter: rep.Diameter, AvgDistance: rep.AvgDistance,
		GiantDiameter: rep.GiantDiameter, GiantAvgDistance: rep.GiantAvgDistance,
		ChipsTotal: rep.ChipsTotal, ChipsDead: rep.ChipsDead, ChipsReachable: rep.ChipsReachable,
	}
}
