package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"ipg/internal/nucleus"
	"ipg/internal/serve"
	"ipg/internal/superipg"
)

// kind is the endpoint shape of one request; the oracle and the traced
// replay dispatch on it.
type kind uint8

const (
	kHealthz kind = iota
	kBuild
	kMetrics
	kRoute
	kMultipath
	kSimulate
	kFaultMetrics
)

// request is one generated request: the URL path sent to ipgd plus the
// decoded parameters the oracle and the traced replay need.
type request struct {
	class int    // index into the workload's classes
	kind  kind   // endpoint shape
	q     string // family query, e.g. "net=hsn&l=3&nucleus=q2"
	path  string // path and query sent
	etag  string // If-None-Match value; "" sends none

	diameter bool
	src, dst int
	k        int // multipath tree count

	simWorkload string
	simSeed     int
	simRate     float64
	warmup      int
	measure     int

	faults  int    // 0 = fault-free
	fmode   string // node | link
	fseed   int
	routing string // aware (simulate only)
}

// id identifies a distinct request for the output oracle.
func (r *request) id() string { return r.path + "\x00" + r.etag }

// key is one family instance with its node count.
type key struct {
	q string
	n int
}

// Every workload is a closed loop on conns connections, one per vCPU of
// the 2-vCPU VM the benchmark was tuned on.  A run sets ipgd up setups
// times, warms up for warmup, and cuts its window into sliceCount slices.
const (
	conns      = 2
	setups     = 5
	sliceCount = 6
	warmup     = 2 * time.Second
)

// workload is one benchmark workload: the flags ipgd boots with, the
// traffic mix, and the constructor of the key sets and priming requests.
type workload struct {
	daemonFlags []string
	mix         map[string]int
	keys        func(*stream) error
}

var workloads = map[string]workload{
	"warm-read": {
		daemonFlags: []string{"-cache-mb", "256", "-shards", "16"},
		mix:         map[string]int{"healthz": 5, "metrics": 35, "metrics_304": 20, "route": 40},
		keys:        (*stream).warmReadKeys,
	},
	"sim-compute": {
		daemonFlags: []string{"-cache-mb", "256", "-shards", "16"},
		mix: map[string]int{"simulate": 40, "simulate_faulted": 20, "simulate_drain": 8,
			"metrics_faulted": 16, "route_multipath": 16},
		keys: (*stream).simComputeKeys,
	},
	"cold-sweep": {
		daemonFlags: []string{"-cache-mb", "8", "-shards", "4", "-implicit-threshold", "4096"},
		mix:         map[string]int{"metrics": 80, "simulate": 10, "route_implicit": 10},
		keys:        (*stream).coldSweepKeys,
	},
}

// classOrder fixes the class names a mix may use; per-class metrics are
// reported under these names on every workload.
var classOrder = []string{
	"healthz", "metrics", "metrics_304", "route", "route_implicit", "route_multipath",
	"simulate", "simulate_faulted", "simulate_drain", "metrics_faulted",
}

// mixer draws a class index from integer weights.
type mixer struct {
	names []string
	cum   []int
	total int
}

func newMixer(mix map[string]int) (*mixer, error) {
	m := &mixer{}
	known := map[string]bool{}
	for _, name := range classOrder {
		known[name] = true
		if w := mix[name]; w > 0 {
			m.names = append(m.names, name)
			m.total += w
			m.cum = append(m.cum, m.total)
		}
	}
	for name := range mix {
		if !known[name] {
			return nil, fmt.Errorf("unknown mix class %q", name)
		}
	}
	if m.total == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return m, nil
}

func (m *mixer) pick(h uint64) int {
	d := int(h % uint64(m.total))
	i := 0
	for d >= m.cum[i] {
		i++
	}
	return i
}

// splitmix64 is one step of the request-stream hash: every choice of
// request i derives from splitmix64 chains over (seed, i), so a seed fixes
// the whole stream and workers need no shared generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws hands out successive hash values for one request.
type draws struct{ h uint64 }

func (d *draws) next() uint64   { d.h = splitmix64(d.h); return d.h }
func (d *draws) intn(n int) int { return int(d.next() % uint64(n)) }
func (d *draws) unit() float64  { return float64(d.next()>>11) / (1 << 53) }

// warmKeys are the eight golden families at 64 to 4,096 nodes.
var warmKeys = []string{
	"net=hsn&l=3&nucleus=q2",
	"net=hsn&l=3&nucleus=q4",
	"net=ring-cn&l=3&nucleus=q3",
	"net=complete-cn&l=3&nucleus=q3",
	"net=sfn&l=2&nucleus=q4",
	"net=hypercube&dim=10&logm=4",
	"net=torus&k=32&side=4",
	"net=ccc&dim=8",
}

// simKeys are the 256- to 576-node simulator instances of sim-compute:
// sizes close enough that no single key dominates the latency tail.
var simKeys = []string{
	"net=hsn&l=3&nucleus=q3",
	"net=sfn&l=3&nucleus=q3",
	"net=ring-cn&l=3&nucleus=q3",
	"net=hypercube&dim=9&logm=3",
	"net=torus&k=24&side=4",
}

// drainKeys carry the transpose and total-exchange drains: transpose needs
// a power-of-two node count with an even number of address bits.
var drainKeys = []struct {
	q        string
	workload string
}{
	{"net=hypercube&dim=8&logm=2", "transpose"},
	{"net=torus&k=16&side=4", "transpose"},
	{"net=hypercube&dim=6&logm=2", "te"},
	{"net=hsn&l=3&nucleus=q2", "te"},
}

// implicitKeys are served through their rank/unrank codecs under
// cold-sweep's -implicit-threshold 4096.
var implicitKeys = []string{
	"net=hypercube&dim=13&logm=4",
	"net=hypercube&dim=14&logm=4",
	"net=torus&k=100&side=4",
	"net=torus&k=128&side=4",
	"net=ccc&dim=10",
	"net=butterfly&dim=10&band=2",
	"net=hsn&l=7&nucleus=q2",
	"net=sfn&l=5&nucleus=q3",
}

// coldPrimed is how many of the most popular cold-sweep keys set-up warms.
const coldPrimed = 12

// coldUniverse enumerates cold-sweep's key universe: every instance of the
// ten families with 16 to 4,096 nodes over the parameter grid below.  The
// list is fixed; popularity follows a fixed shuffle of it (see popularity).
func coldUniverse() []key {
	var out []key
	add := func(q string, n int) {
		if n >= 16 && n <= 4096 {
			out = append(out, key{q, n})
		}
	}
	for _, spec := range []string{"q2", "q3", "q4", "q5", "q6"} {
		nuc, err := nucleus.Parse(spec)
		if err != nil {
			panic(err)
		}
		for _, fam := range []string{"hsn", "ring-cn", "complete-cn", "sfn"} {
			for l := 2; l <= 6; l++ {
				if n := pow(nuc.M, l); n <= 4096 {
					add(fmt.Sprintf("net=%s&l=%d&nucleus=%s", fam, l, spec), n)
				}
			}
		}
		add("net=hcn&nucleus="+spec, nuc.M*nuc.M)
		for r := 2; r <= 3; r++ {
			add(fmt.Sprintf("net=rcc&l=%d&nucleus=%s", r, spec), superipg.RCC(r, nuc).N())
		}
	}
	for dim := 4; dim <= 12; dim++ {
		for logm := 1; logm <= 4 && logm < dim; logm++ {
			add(fmt.Sprintf("net=hypercube&dim=%d&logm=%d", dim, logm), 1<<dim)
		}
	}
	for k := 4; k <= 64; k += 4 {
		for _, side := range []int{2, 4} {
			if k%side == 0 && (k/side)%2 == 0 {
				add(fmt.Sprintf("net=torus&k=%d&side=%d", k, side), k*k)
			}
		}
	}
	for dim := 3; dim <= 8; dim++ {
		add(fmt.Sprintf("net=ccc&dim=%d", dim), dim<<dim)
		for band := 1; band <= dim; band++ {
			// The MCMP band split needs an even number of bands.
			if dim%band == 0 && (dim/band)%2 == 0 {
				add(fmt.Sprintf("net=butterfly&dim=%d&band=%d", dim, band), dim<<dim)
			}
		}
	}
	return out
}

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		if n > 1<<20 {
			return n
		}
		n *= b
	}
	return n
}

// zipf draws ranks 0..n-1 with weight 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// popularity orders cold-sweep's universe most popular first: a fixed
// Fisher–Yates shuffle, so every seed sweeps the same workload and the seed
// only picks which requests are drawn from it.
func popularity(keys []key) []key {
	out := append([]key(nil), keys...)
	d := draws{h: 0x5eed}
	for i := len(out) - 1; i > 0; i-- {
		j := d.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// nodesOf computes a key's node count from the library without building.
func nodesOf(q string) (int, error) {
	p, err := parseParams(q)
	if err != nil {
		return 0, err
	}
	switch p.Net {
	case "hypercube":
		return 1 << p.Dim, nil
	case "torus":
		return p.K * p.K, nil
	case "ccc", "butterfly":
		return p.Dim << p.Dim, nil
	}
	nuc, err := nucleus.Parse(p.Nucleus)
	if err != nil {
		return 0, err
	}
	switch p.Net {
	case "hcn":
		return nuc.M * nuc.M, nil
	case "rcc":
		return superipg.RCC(p.L, nuc).N(), nil
	}
	return pow(nuc.M, p.L), nil
}

// parseParams decodes and validates a family query exactly as ipgd does on
// its in-place decoding path.
func parseParams(q string) (serve.Params, error) {
	p, prov, err := serve.ParamsFromRawQuery(q)
	if err != nil {
		return p, err
	}
	return p, p.CheckProvided(prov)
}

// stream generates one workload's seeded request sequence.
type stream struct {
	seed  int64
	mix   *mixer
	prime []request // issued during set-up, in order

	keys    []key // warm-read / sim-compute keys; cold-sweep: popularity order
	zipfAll *zipf
	simCold []key // cold-sweep simulate candidates, popularity order
	zipfSim *zipf
	impl    []key
	etags   map[string]string // warm-read: metrics path -> ETag learned while priming
}

func newStream(name string, w workload, seed int64) (*stream, error) {
	mix, err := newMixer(w.mix)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	s := &stream{seed: seed, mix: mix, etags: map[string]string{}}
	if err := w.keys(s); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return s, nil
}

func withN(qs []string) ([]key, error) {
	var out []key
	for _, q := range qs {
		n, err := nodesOf(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		out = append(out, key{q, n})
	}
	return out, nil
}

func buildReq(q string) request {
	return request{class: -1, kind: kBuild, q: q, path: "/v1/build?" + q}
}

// warmReadKeys: warm-read builds every golden family and primes its metrics
// with and without the diameter.
func (s *stream) warmReadKeys() (err error) {
	if s.keys, err = withN(warmKeys); err != nil {
		return err
	}
	for _, k := range s.keys {
		s.prime = append(s.prime, buildReq(k.q))
		for _, d := range []bool{false, true} {
			s.prime = append(s.prime, metricsReq(-1, k.q, d))
		}
	}
	return nil
}

// simComputeKeys: sim-compute builds its simulator instances, runs one short
// simulation on each, and builds the drain instances.
func (s *stream) simComputeKeys() (err error) {
	if s.keys, err = withN(simKeys); err != nil {
		return err
	}
	for _, k := range s.keys {
		s.prime = append(s.prime, buildReq(k.q))
		r := request{class: -1, kind: kSimulate, q: k.q, simWorkload: "random", simSeed: 1, simRate: 0.1, warmup: 5, measure: 5}
		r.path = simPath(&r)
		s.prime = append(s.prime, r)
	}
	for _, dk := range drainKeys {
		s.prime = append(s.prime, buildReq(dk.q))
	}
	return nil
}

// coldSweepKeys: cold-sweep draws from the whole universe in popularity order,
// builds the codec-served instances, and warms the most popular metrics,
// as a sweep client resuming work would.
func (s *stream) coldSweepKeys() (err error) {
	s.keys = popularity(coldUniverse())
	s.zipfAll = newZipf(len(s.keys), 0.9)
	for _, k := range s.keys {
		p, _ := parseParams(k.q)
		if serve.IsSuperFamily(p.Net) && p.Net != "rcc" && k.n <= 1024 {
			s.simCold = append(s.simCold, k)
		}
	}
	s.zipfSim = newZipf(len(s.simCold), 0.9)
	if s.impl, err = withN(implicitKeys); err != nil {
		return err
	}
	for _, k := range s.impl {
		s.prime = append(s.prime, buildReq(k.q))
	}
	for _, k := range s.keys[:coldPrimed] {
		s.prime = append(s.prime, metricsReq(-1, k.q, true))
	}
	return nil
}

func metricsReq(class int, q string, diameter bool) request {
	r := request{class: class, kind: kMetrics, q: q, diameter: diameter, path: "/v1/metrics?" + q}
	if diameter {
		r.path += "&diameter=1"
	}
	return r
}

func simPath(r *request) string {
	p := fmt.Sprintf("/v1/simulate?%s&workload=%s&seed=%d", r.q, r.simWorkload, r.simSeed)
	if r.simWorkload == "random" {
		p += fmt.Sprintf("&rate=%s&warmup=%d&measure=%d", strconv.FormatFloat(r.simRate, 'g', -1, 64), r.warmup, r.measure)
	}
	if r.faults > 0 {
		p += fmt.Sprintf("&faults=%d&fmode=%s&fseed=%d", r.faults, r.fmode, r.fseed)
		if r.routing != "" {
			p += "&frouting=" + r.routing
		}
	}
	return p
}

// routeEnds is how many seeded sources (and destinations) each key's
// routes use, so route answers recur like a client's working set and the
// oracle checks a bounded number of distinct routes.
const routeEnds = 24

// endpoint returns the j-th seeded route source (side 0) or destination
// (side 1) of key k.
func (s *stream) endpoint(k key, side, j int) int {
	h := splitmix64(uint64(s.seed)<<20 ^ uint64(side)<<16 ^ uint64(j))
	return int(h % uint64(k.n))
}

// gen returns request i of the stream.
func (s *stream) gen(i int64) request {
	d := draws{h: splitmix64(uint64(i)) ^ uint64(s.seed)*0x2545f4914f6cdd1d}
	ci := s.mix.pick(d.next())
	class := s.mix.names[ci]
	switch class {
	case "healthz":
		return request{class: ci, kind: kHealthz, path: "/healthz"}
	case "metrics":
		if s.zipfAll != nil {
			return metricsReq(ci, s.keys[s.zipfAll.draw(d.unit())].q, true)
		}
		return metricsReq(ci, s.keys[d.intn(len(s.keys))].q, d.intn(2) == 1)
	case "metrics_304":
		r := metricsReq(ci, s.keys[d.intn(len(s.keys))].q, d.intn(2) == 1)
		r.etag = s.etags[r.path]
		return r
	case "route", "route_implicit":
		keys := s.keys
		if class == "route_implicit" {
			keys = s.impl
		}
		k := keys[d.intn(len(keys))]
		r := request{class: ci, kind: kRoute, q: k.q, src: s.endpoint(k, 0, d.intn(routeEnds)), dst: s.endpoint(k, 1, d.intn(routeEnds))}
		r.path = fmt.Sprintf("/v1/route?%s&src=%d&dst=%d", k.q, r.src, r.dst)
		return r
	case "route_multipath":
		k := s.keys[d.intn(len(s.keys))]
		r := request{class: ci, kind: kMultipath, q: k.q, src: d.intn(k.n), dst: d.intn(k.n), k: 2 + d.intn(2)}
		r.path = fmt.Sprintf("/v1/route?%s&src=%d&dst=%d&multipath=%d", k.q, r.src, r.dst, r.k)
		return r
	case "simulate", "simulate_faulted":
		r := request{class: ci, kind: kSimulate, simWorkload: "random", simRate: 0.1}
		if s.zipfSim != nil {
			// cold-sweep: a short run on a popular CN/HSN key, so an evicted
			// artifact re-pays its simulation network and table router.
			r.q = s.simCold[s.zipfSim.draw(d.unit())].q
			r.simSeed, r.warmup, r.measure = 1+d.intn(2), 5, 20
		} else {
			r.q = s.keys[d.intn(len(s.keys))].q
			r.simSeed, r.warmup, r.measure = 1+d.intn(4), 10, 40
		}
		if class == "simulate_faulted" {
			r.faults, r.fmode, r.fseed, r.routing = 2+2*d.intn(2), "node", 1+d.intn(2), "aware"
			r.simSeed = 1 + d.intn(2)
		}
		r.path = simPath(&r)
		return r
	case "simulate_drain":
		dk := drainKeys[d.intn(len(drainKeys))]
		r := request{class: ci, kind: kSimulate, q: dk.q, simWorkload: dk.workload, simSeed: 1 + d.intn(2)}
		r.path = simPath(&r)
		return r
	case "metrics_faulted":
		k := s.keys[d.intn(len(s.keys))]
		r := request{class: ci, kind: kFaultMetrics, q: k.q, faults: 2 + 2*d.intn(2), fseed: 1 + d.intn(2)}
		r.fmode = []string{"node", "link"}[d.intn(2)]
		r.path = fmt.Sprintf("/v1/metrics?%s&faults=%d&fmode=%s&fseed=%d", k.q, r.faults, r.fmode, r.fseed)
		return r
	}
	panic("unhandled class " + class)
}
