// Command perfbench is the repository benchmark.  It boots a fresh ipgd on
// loopback, drives one named workload from this single process with at
// most nproc connections, checks one answer per distinct request against
// the library, and prints the metrics as one JSON object on the last line
// of standard output: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1 (which adds an in-process traced replay of the
// same seeded request stream).
//
//	go build -o ipgd ../cmd/ipgd && go build -o perfbench .
//	./perfbench -ipgd ./ipgd -workload warm-read -seed 1 -seconds 24 -trace 0
//
// run.py does the builds and passes these flags through.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipg/internal/loadgen"
	"ipg/internal/serve"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: warm-read, sim-compute or cold-sweep")
		seed    = flag.Int64("seed", 1, "request-stream seed")
		seconds = flag.Int("seconds", 24, "length of the measured window")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		ipgdBin = flag.String("ipgd", ".bench_build/ipgd", "ipgd binary to benchmark")
		outDir  = flag.String("out", ".bench_build", "directory for the span dump of traced runs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	b := &bench{name: *name, w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		ipgd: *ipgdBin, outDir: *outDir, trace: *traceOn == 1}
	res, err := b.run()
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

// warmupBase offsets the warm-up's request indices past any window.
const warmupBase = 1 << 40

// settle is how long ipgd runs on after the last calibration burst before
// its CPU clock is read, so work it left unfinished when paused is counted.
const settle = 250 * time.Millisecond

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	name   string
	w      workload
	seed   int64
	window time.Duration
	ipgd   string
	outDir string
	trace  bool
}

func (b *bench) run() (*result, error) {
	s, err := newStream(b.name, b.w, b.seed)
	if err != nil {
		return nil, err
	}
	scfg, err := daemonConfig(b.w.daemonFlags)
	if err != nil {
		return nil, err
	}

	// Set-up: exec -> healthy -> primed, several times; the last daemon
	// serves the window.
	setupSpeed := calibrate(calibrationBurst) / referenceSpeed
	var setupTimes []float64
	var d *daemon
	var primeResponses map[string]*response
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(b.ipgd, b.w.daemonFlags); err != nil {
			return nil, err
		}
		if primeResponses, err = prime(d.base, s); err != nil {
			d.stop()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds()*setupSpeed)
	}
	defer d.stop()

	// Warm-up: the same mix from another part of the stream, unmeasured,
	// so the cache and the runtimes reach steady state first.
	classes := len(s.mix.names)
	c := newClient(d.base, conns)
	if _, err := runClosed(c, s.gen, warmupBase, classes, warmup); err != nil {
		return nil, err
	}

	ctx := context.Background()
	before, err := scrape(ctx, d.base)
	if err != nil {
		return nil, err
	}
	// The window is cut into slices with a calibration burst on each side,
	// so every slice is scaled by the machine speed measured next to it.
	var win window
	if err := win.burst(d); err != nil {
		return nil, err
	}
	next := int64(0)
	for k := 0; k < sliceCount; k++ {
		r, err := runClosed(c, s.gen, next, classes, b.window/sliceCount)
		if err != nil {
			return nil, err
		}
		next += r.Sent
		win.slices = append(win.slices, r)
		if err := win.burst(d); err != nil {
			return nil, err
		}
	}
	time.Sleep(settle)
	cpuEnd, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	win.cpuAt = append(win.cpuAt, cpuEnd)
	hwm, err := vmHWM(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, d.base)
	if err != nil {
		return nil, err
	}
	c.http.CloseIdleConnections()
	d.stop()

	// Output oracle: one answer per distinct request, priming included.
	lib := newLibrary(scfg)
	var rs []*response
	for _, r := range primeResponses {
		rs = append(rs, r)
	}
	for _, r := range c.responses {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].req.path < rs[j].req.path })
	className := func(ci int) string {
		if ci < 0 {
			return "prime"
		}
		return s.mix.names[ci]
	}
	orc := checkAll(lib, rs, className, s.etags)
	if orc.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: oracle: %d mismatches, first: %v\n", orc.mismatches, orc.firstErr)
	}
	for _, name := range s.mix.names {
		if orc.checked[name] == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: oracle checked no %s response\n", name)
		}
	}

	var attempted, errs int64
	var elapsed time.Duration
	var all loadgen.Histogram
	perClass := make([]loadgen.Histogram, classes)
	for _, r := range win.slices {
		attempted += r.Sent
		errs += r.Errors()
		elapsed += r.Elapsed
		all.Merge(&r.Total)
		for ci := range perClass {
			perClass[ci].Merge(&r.Class[ci].Hist)
		}
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no requests completed in the window")
	}
	failed := min(errs+int64(orc.mismatches), attempted)
	daemonCPU := cpuEnd - win.cpuAt[0]

	panics := after["ipgd_panics_total"] - before["ipgd_panics_total"]
	undesigned5xx := after.requestsWithCode(is5xxUndesigned) - before.requestsWithCode(is5xxUndesigned)
	rejected := after.requestsWithCode(func(c int) bool { return c == 503 }) - before.requestsWithCode(func(c int) bool { return c == 503 })
	if panics > 0 || undesigned5xx > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: ipgd panics +%g, undesigned 5xx +%g\n", panics, undesigned5xx)
	}
	res := &result{
		Correct:   orc.mismatches == 0 && panics == 0 && undesigned5xx == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	nproc := float64(runtime.NumCPU())
	if !b.trace {
		st := win.stats()
		put("throughput_rps", st.throughput, "req/s")
		put("p50_ms", st.p50, "ms")
		put("p99_ms", st.p99, "ms")
		put("cpu_ms_per_req", st.cpuMsPerReq, "ms")
		put("rss_peak_mb", hwm, "MiB")
		put("setup_s", median(setupTimes), "s")
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d failed), %d distinct checked, machine speed %.3f\n",
			b.name, b.seed, attempted, failed, len(rs), median(win.speeds))
		return res, nil
	}

	perKreq := func(delta float64) float64 { return delta * 1000 / float64(attempted) }
	put("error_frac", float64(failed)/float64(attempted), "ratio")
	put("cache.evictions_per_kreq", perKreq(after["ipgd_cache_evictions_total"]-before["ipgd_cache_evictions_total"]), "1/kreq")
	put("artifact.builds_per_kreq", perKreq(after.sum("ipgd_artifact_builds_total")-before.sum("ipgd_artifact_builds_total")), "1/kreq")
	put("pool.rejected_per_kreq", perKreq(rejected), "1/kreq")
	put("ipgd.cpu_util", daemonCPU/(elapsed.Seconds()*nproc), "ratio")
	// The generator's CPU time counts the slices only, not the bursts.
	var generatorCPU float64
	for k := range win.slices {
		generatorCPU += win.selfAtPause[k+1] - win.selfAtResume[k]
	}
	put("loadgen.cpu_util", generatorCPU/(elapsed.Seconds()*nproc), "ratio")
	put("loadgen.requests", float64(attempted), "count")
	put("host.speed", median(win.speeds), "ratio")
	put("host.steal_frac", win.stats().stealFrac, "ratio")
	for _, name := range classOrder {
		var h *loadgen.Histogram
		for ci, n := range s.mix.names {
			if n == name {
				h = &perClass[ci]
			}
		}
		p50, p99 := 0.0, 0.0
		if h != nil {
			p50, p99 = ms(h.Quantile(0.5)), ms(h.Quantile(0.99))
		}
		put("endpoint."+name+".p50_ms", p50, "ms")
		put("endpoint."+name+".p99_ms", p99, "ms")
	}

	rp, err := tracedReplay(scfg, s, int(min(next, 50000)), min(b.window, 10*time.Second))
	if err != nil {
		return nil, err
	}
	ls, unattributed := rp.layers()
	put("serve.handler_us", rp.handlerP50us, "us")
	put("serve.decode_ns", medianOf(ls, "serve.decode", time.Nanosecond), "ns")
	put("serve.encode_us", medianOf(ls, "serve.encode", time.Microsecond), "us")
	put("serve.allocs_per_req", rp.allocs, "count")
	put("serve.unattributed_frac", unattributed, "ratio")
	put("http.overhead_us", ms(all.Quantile(0.5))*1000-rp.handlerP50us, "us")
	put("cache.hit_ratio", rp.hitRatio, "ratio")
	put("cache.lookup_ns", medianOf(ls, "cache.lookup", time.Nanosecond), "ns")
	put("artifact.build_ms", meanOf(ls, "artifact.build", time.Millisecond), "ms")
	put("artifact.metrics_ms", meanOf(ls, "artifact.metrics", time.Millisecond), "ms")
	put("graph.diameter_ms", meanOf(ls, "graph.diameter", time.Millisecond), "ms")
	put("topo.bfs_us", medianOf(ls, "topo.bfs", time.Microsecond), "us")
	put("topo.codec_bfs_ms", meanOf(ls, "topo.codec_bfs", time.Millisecond), "ms")
	put("netsim.run_ms", meanOf(ls, "netsim.run", time.Millisecond), "ms")
	nrps := 0.0
	if t := ls["netsim.run"].total; t > 0 {
		nrps = rp.nodeRounds / t.Seconds()
	}
	put("netsim.node_rounds_per_s", nrps, "1/s")
	put("netsim.degrade_ms", meanOf(ls, "netsim.degrade", time.Millisecond), "ms")
	put("netsim.fault_router_ms", meanOf(ls, "netsim.fault_router", time.Millisecond), "ms")
	put("netsim.sim_network_ms", meanOf(ls, "netsim.sim_network", time.Millisecond), "ms")
	put("netsim.table_router_ms", meanOf(ls, "netsim.table_router", time.Millisecond), "ms")
	put("fault.sample_ms", meanOf(ls, "fault.sample", time.Millisecond), "ms")
	put("fault.analyze_ms", meanOf(ls, "fault.analyze", time.Millisecond), "ms")
	put("ist.trees_ms", meanOf(ls, "ist.trees", time.Millisecond), "ms")
	put("trace.requests", float64(rp.requests), "count")
	put("trace.overhead_frac", rp.tracedCPU/rp.untracedCPU-1, "ratio")
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.csv", b.name, b.seed))
	if err := writeSpans(path, rp.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// is5xxUndesigned: every 5xx except the designed 503 (saturation, open
// circuit) and 504 (deadline).
func is5xxUndesigned(code int) bool { return code >= 500 && code != 503 && code != 504 }

// prime issues the workload's set-up requests in order; every one must
// succeed.  It returns the answers for the oracle and records the ETags
// warm-read revalidates with.
func prime(base string, s *stream) (map[string]*response, error) {
	c := newClient(base, 1)
	defer c.http.CloseIdleConnections()
	var buf bytes.Buffer
	for i := range s.prime {
		r := &s.prime[i]
		r.class = -1
		if !c.do(r, &buf) {
			return nil, fmt.Errorf("priming %s failed: %s", r.path, buf.String())
		}
		if r.kind == kMetrics {
			s.etags[r.path] = c.responses[r.id()].etag
		}
	}
	return c.responses, nil
}

// daemonConfig mirrors the daemon flags into a serve.Config for the
// in-process oracle and replay.
func daemonConfig(flags []string) (serve.Config, error) {
	fs := flag.NewFlagSet("ipgd", flag.ContinueOnError)
	cacheMB := fs.Int("cache-mb", 256, "")
	shards := fs.Int("shards", 16, "")
	implicit := fs.Int("implicit-threshold", 0, "")
	maxNodes := fs.Int("max-nodes", 1<<16, "")
	workers := fs.Int("workers", 0, "")
	queue := fs.Int("queue", 0, "")
	if err := fs.Parse(flags); err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		CacheBytes: int64(*cacheMB) << 20, CacheShards: *shards, ImplicitThreshold: *implicit,
		MaxNodes: *maxNodes, Workers: *workers, QueueDepth: *queue,
	}, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stealSeconds reads the host's steal clock: the CPU time the hypervisor
// gave to others while this machine's CPUs wanted to run.
func stealSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal time in /proc/stat")
	}
	v, err := strconv.ParseFloat(f[8], 64)
	return v / clockTicks, err
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is the measured window: its slices, and the machine speed and
// ipgd's CPU clock read at each calibration burst around them, plus the
// CPU clock at the end.
type window struct {
	slices []*loadgen.Result
	speeds []float64
	cpuAt  []float64
	// The host's steal clock and the benchmark's own CPU clock when each
	// burst pauses and resumes ipgd.
	stealAtPause, stealAtResume []float64
	selfAtPause, selfAtResume   []float64
}

// burst pauses ipgd, reads its CPU clock, measures the machine speed, and
// resumes ipgd.  Pausing keeps ipgd's own work, in the foreground or the
// background, from slowing the calibration loop; the run fails if ipgd's
// clock moves while it is paused.
func (w *window) burst(d *daemon) (err error) {
	self0 := selfCPU()
	if err := d.pause(); err != nil {
		return err
	}
	defer func() {
		if e := d.resume(); err == nil {
			err = e
		}
	}()
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return err
	}
	steal0, err := stealSeconds()
	if err != nil {
		return err
	}
	speed := calibrate(calibrationBurst) / referenceSpeed
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return err
	}
	if cpu1 != cpu0 {
		return fmt.Errorf("ipgd used %.2f CPU-s while paused", cpu1-cpu0)
	}
	steal1, err := stealSeconds()
	if err != nil {
		return err
	}
	w.speeds = append(w.speeds, speed)
	w.cpuAt = append(w.cpuAt, cpu0)
	w.stealAtPause = append(w.stealAtPause, steal0)
	w.stealAtResume = append(w.stealAtResume, steal1)
	w.selfAtPause = append(w.selfAtPause, self0)
	w.selfAtResume = append(w.selfAtResume, selfCPU())
	return nil
}

// sliceStats are the end-to-end figures of a run, and the share of the
// machine's CPU time the host stole during the slices.
type sliceStats struct {
	throughput, p50, p99, cpuMsPerReq, stealFrac float64
}

// stats scales each slice to reference speed: by the calibration bursts
// around it (a host that runs everything 10% slow for a while slows the
// calibration loop as much as the daemon), and by the share of CPU time
// the host did not steal from this machine meanwhile.  Throughput and
// median latency are medians over the slices, so a hiccup spoils one slice
// and not the run.  The 99th percentile pools every slice, at their mean
// scale: one slice holds too few requests beyond its own 99th percentile.
// CPU per request is ipgd's CPU time over the whole window, from the first
// burst to the end, over all completions; each stretch between two bursts
// is scaled by the speed around it (stolen time is not CPU time), and the
// settling time after the last burst counts with the last slice.
func (w *window) stats() sliceStats {
	var thr, p50 []float64
	var all loadgen.Histogram
	var tsum, cpu, ok, stolen, wall float64
	nproc := float64(runtime.NumCPU())
	for k, r := range w.slices {
		f := (w.speeds[k] + w.speeds[k+1]) / 2
		st := w.stealAtPause[k+1] - w.stealAtResume[k]
		stolen += st
		wall += nproc * r.Elapsed.Seconds()
		t := f * max(1-st/(nproc*r.Elapsed.Seconds()), 0.5)
		n := float64(r.Sent - r.Errors())
		thr = append(thr, n/r.Elapsed.Seconds()/t)
		p50 = append(p50, ms(r.Total.Quantile(0.5))*t)
		all.Merge(&r.Total)
		tsum += t
		used := w.cpuAt[k+1] - w.cpuAt[k]
		if k == len(w.slices)-1 {
			used = w.cpuAt[k+2] - w.cpuAt[k]
		}
		cpu += used * f
		ok += n
	}
	return sliceStats{
		throughput:  median(thr),
		p50:         median(p50),
		p99:         ms(all.Quantile(0.99)) * tsum / float64(len(w.slices)),
		cpuMsPerReq: cpu * 1000 / max(ok, 1),
		stealFrac:   stolen / wall,
	}
}
