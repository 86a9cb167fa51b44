package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ipg/internal/graph"
	"ipg/internal/topo"
)

// routeCase is one topology whose /v1/route answers are pinned.  An
// implicit case is built the way cold-sweep serves it (codec above 4,096
// nodes); pairs < 0 means every ordered (src, dst) pair, otherwise that
// many seeded pairs plus one antipodal pair.
type routeCase struct {
	name     string
	query    string
	implicit bool
	pairs    int
}

var routeCases = []routeCase{
	{"HSN(3,Q2)", "net=hsn&l=3&nucleus=q2", false, -1},
	{"ring-CN(3,Q3)", "net=ring-cn&l=3&nucleus=q3", false, -1},
	{"complete-CN(3,Q3)", "net=complete-cn&l=3&nucleus=q3", false, -1},
	{"SFN(2,Q4)", "net=sfn&l=2&nucleus=q4", false, -1},
	{"HSN(3,Q4)", "net=hsn&l=3&nucleus=q4", false, 2000},
	{"Q10", "net=hypercube&dim=10&logm=4", false, 2000},
	{"32-ary 2-cube", "net=torus&k=32&side=4", false, 2000},
	{"CCC(8)", "net=ccc&dim=8", false, 2000},
	{"Q13", "net=hypercube&dim=13&logm=4", true, 64},
	{"Q14", "net=hypercube&dim=14&logm=4", true, 64},
	{"100-ary 2-cube", "net=torus&k=100&side=4", true, 64},
	{"128-ary 2-cube", "net=torus&k=128&side=4", true, 64},
	{"CCC(10)", "net=ccc&dim=10", true, 64},
	{"WBF(10)", "net=butterfly&dim=10&band=2", true, 64},
	{"HSN(7,Q2)", "net=hsn&l=7&nucleus=q2", true, 64},
	{"SFN(5,Q3)", "net=sfn&l=5&nucleus=q3", true, 64},
}

// routeArtifact builds c's artifact in the representation cold-sweep and
// warm-read serve it in.
func routeArtifact(t testing.TB, c routeCase) *Artifact {
	t.Helper()
	p, _, err := ParamsFromRawQuery(c.query)
	if err != nil {
		t.Fatal(err)
	}
	implicitOver := 0
	if c.implicit {
		implicitOver = 4096
	}
	a, err := BuildArtifactThreshold(context.Background(), p, 0, implicitOver)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[bool]string{false: RepCSR, true: RepImplicit}[c.implicit]; a.Rep() != want {
		t.Fatalf("%s: representation %q, want %q", c.name, a.Rep(), want)
	}
	return a
}

// routePairs lists c's (src, dst) pairs: all of them, or c.pairs drawn
// from a splitmix64 stream seeded by the case name, then the antipodal
// pair (0, the lowest-numbered vertex farthest from 0).
func routePairs(t testing.TB, c routeCase, a *Artifact) [][2]int {
	t.Helper()
	n := a.N
	if c.pairs < 0 {
		pairs := make([][2]int, 0, n*n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
		return pairs
	}
	h := fnv.New64a()
	h.Write([]byte(c.name))
	state := h.Sum64()
	next := func() int {
		state += 0x9e3779b97f4a7c15
		x := state
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return int((x ^ (x >> 31)) % uint64(n))
	}
	pairs := make([][2]int, 0, c.pairs+1)
	for i := 0; i < c.pairs; i++ {
		src := next()
		pairs = append(pairs, [2]int{src, next()})
	}
	dist := make([]int32, n)
	if ecc, _, _ := topo.BFSSourceInto(a.Source(), 0, dist, make([]int32, 0, n), nil); ecc <= 0 {
		t.Fatalf("%s: eccentricity of vertex 0 is %d", c.name, ecc)
	}
	far := 0
	for v, d := range dist {
		if d > dist[far] {
			far = v
		}
	}
	return append(pairs, [2]int{0, far})
}

// routeDigest folds one path into an FNV-1a stream: its length, then
// every vertex, as little-endian uint32s.
func routeDigest(h interface{ Write([]byte) (int, error) }, path []int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(path)))
	h.Write(b[:])
	for _, v := range path {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
}

// routePins are the FNV-1a digests of every case's shortestPath answers,
// captured from the full-BFS-then-walk-back implementation: the first
// neighbour in row order one hop closer to src, walked from dst.
var routePins = map[string]string{
	"HSN(3,Q2)":         "e4c99d470c26ba24",
	"ring-CN(3,Q3)":     "3013ddb686518556",
	"complete-CN(3,Q3)": "3013ddb686518556", // at l = 3, R1 = L2: the same generators
	"SFN(2,Q4)":         "674ac34db44260fd",
	"HSN(3,Q4)":         "5a99a52229649a22",
	"Q10":               "7c272afa60e23a54",
	"32-ary 2-cube":     "8e180098fdb1cc7d",
	"CCC(8)":            "8d16b3e8567aef47",
	"Q13":               "23304f41b55227b1",
	"Q14":               "ad0cd9f6f554e572",
	"100-ary 2-cube":    "1cd63957d6f43d13",
	"128-ary 2-cube":    "cbc3ef1547fc9173",
	"CCC(10)":           "ccde2d3a28ee6c8d",
	"WBF(10)":           "cc797110815ab5f8",
	"HSN(7,Q2)":         "6f796a4136268bfb",
	"SFN(5,Q3)":         "fda5ddc770d39e82",
}

// TestRoutePathPins pins the exact vertices of /v1/route answers, not
// just their endpoints and lengths: any route search must return the
// same path, hop for hop, as the walk the pins were captured from.  Each
// path is also compared with that walk, kept below as referenceRoute, so
// a failure names the first pair that differs.
func TestRoutePathPins(t *testing.T) {
	for _, c := range routeCases {
		t.Run(c.name, func(t *testing.T) {
			a := routeArtifact(t, c)
			h := fnv.New64a()
			checkAgainstReference(t, a, referenceCSR(t, a), routePairs(t, c, a), func(path []int) { routeDigest(h, path) })
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := routePins[c.name]; got != want {
				t.Errorf("%s: route digest %s, want %s", c.name, got, want)
			}
		})
	}
}

// referenceRoute is the route shortestPath answered before the
// bidirectional search, kept as the oracle: from dist, a full BFS of src,
// walk back from dst, each step to the first neighbor in row order one
// hop closer to src.  nil when dst is unreachable.
func referenceRoute(s topo.Source, dist []int32, dst int) []int {
	if dist[dst] < 0 {
		return nil
	}
	path := make([]int, dist[dst]+1)
	path[len(path)-1] = dst
	var nbuf []int32
	for d := len(path) - 1; d > 0; d-- {
		nbuf = s.NeighborsInto(path[d], nbuf)
		for _, v := range nbuf {
			if int(dist[v]) == d-1 {
				path[d-1] = int(v)
				break
			}
		}
	}
	return path
}

// referenceCSR returns a's adjacency as a CSR: its arena, or its codec's
// rows materialized in the same numbering, so the reference BFS of an
// implicit case costs an arena sweep instead of a codec one.
func referenceCSR(t *testing.T, a *Artifact) *topo.CSR {
	t.Helper()
	if a.Materialized() {
		return a.U.CSR()
	}
	c, err := topo.Build(a.N, func(edge func(u, v int)) {
		var buf []int32
		for v := 0; v < a.N; v++ {
			buf = a.Impl.NeighborsInto(v, buf)
			for _, u := range buf {
				edge(v, int(u))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkAgainstReference compares shortestPath with referenceRoute on
// pairs, in order, running the reference BFS once per run of pairs with
// the same source, and hands each path to visit.  An unreachable pair
// must get the 400 "no path" answer.
func checkAgainstReference(t *testing.T, a *Artifact, ref *topo.CSR, pairs [][2]int, visit func(path []int)) {
	t.Helper()
	ctx := context.Background()
	dist := make([]int32, a.N)
	queue := make([]int32, 0, a.N)
	last := -1
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		if src != last {
			topo.BFSSourceInto(ref, src, dist, queue, nil)
			last = src
		}
		want := referenceRoute(ref, dist, dst)
		got, err := shortestPath(ctx, a, src, dst)
		if want == nil {
			var he *httpError
			wantMsg := fmt.Sprintf("no path from %d to %d (disconnected?)", src, dst)
			if !errors.As(err, &he) || he.code != http.StatusBadRequest || he.msg != wantMsg || got != nil {
				t.Fatalf("%s: %d -> %d = %v, %v; want a 400 %q", a.Name, src, dst, got, err, wantMsg)
			}
			continue
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: %d -> %d = %v, %v; the reference walk gives %v", a.Name, src, dst, got, err, want)
		}
		visit(got)
	}
}

// TestRouteTwoComponents compares shortestPath with the reference walk on
// every pair of a disconnected artifact, src == dst included: reachable
// pairs get the walk's path, the others keep their 400.
func TestRouteTwoComponents(t *testing.T) {
	a := twoComponentArtifact()
	var pairs [][2]int
	for src := 0; src < a.N; src++ {
		for dst := 0; dst < a.N; dst++ {
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	checkAgainstReference(t, a, a.U.CSR(), pairs, func([]int) {})
}

// twoComponentArtifact is two disjoint 4-cubes: vertices 0-15 and 16-31.
func twoComponentArtifact() *Artifact {
	g := graph.FromStream(32, func(edge func(u, v int)) {
		for v := 0; v < 32; v++ {
			for bit := 1; bit < 16; bit <<= 1 {
				edge(v, v^bit)
			}
		}
	})
	return &Artifact{Name: "2xQ4", N: g.N(), U: g}
}

// TestRouteUnreachableOverHTTP: /v1/route between the components of a
// disconnected network is a 400 naming both endpoints.
func TestRouteUnreachableOverHTTP(t *testing.T) {
	a := twoComponentArtifact()
	srv := NewServer(Config{Workers: 2, Builder: func(context.Context, Params, int) (*Artifact, error) { return a, nil }})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var body struct{ Error string }
	resp := get(t, ts, "/v1/route?net=hypercube&dim=5&src=3&dst=20", &body)
	if want := "no path from 3 to 20 (disconnected?)"; resp.StatusCode != http.StatusBadRequest || body.Error != want {
		t.Fatalf("status %d, error %q; want 400 %q", resp.StatusCode, body.Error, want)
	}
	var route RouteResponse
	if resp := get(t, ts, "/v1/route?net=hypercube&dim=5&src=17&dst=30", &route); resp.StatusCode != http.StatusOK || route.Hops != 4 {
		t.Fatalf("route inside one component: status %d, %+v", resp.StatusCode, route)
	}
}

// TestRouteCancelled: a route whose context is already cancelled stops
// before the search's first level, with context.Canceled and no path.
// The implicit Q20 has 2^20 nodes, so a search that ignored the context
// would keep its worker slot for about 0.4 s.
func TestRouteCancelled(t *testing.T) {
	p, _, err := ParamsFromRawQuery("net=hypercube&dim=20")
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildArtifactThreshold(context.Background(), p, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rep() != RepImplicit {
		t.Fatalf("Q20 representation %q, want implicit", a.Rep())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if path, err := shortestPath(ctx, a, 0, a.N-1); !errors.Is(err, context.Canceled) || path != nil {
		t.Fatalf("cancelled route = %d vertices, %v; want no path and context.Canceled", len(path), err)
	}
}

// TestRouteCancelledStatus: the handler answers a cancelled route 499 and
// a timed-out one 504, even on a cached CSR artifact that takes no slot.
func TestRouteCancelledStatus(t *testing.T) {
	const path = "/v1/route?net=hsn&l=3&nucleus=q4&src=0&dst=4095"
	srv := NewServer(Config{Workers: 2})
	prime := httptest.NewRecorder()
	srv.ServeHTTP(prime, httptest.NewRequest(http.MethodGet, path, nil))
	if prime.Code != http.StatusOK {
		t.Fatalf("priming route: status %d", prime.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	if rec.Code != 499 {
		t.Errorf("cancelled route: status %d, want 499", rec.Code)
	}
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("timed-out route: status %d, want 504", rec.Code)
	}
}
