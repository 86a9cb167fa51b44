// Command benchratio turns `go test -bench` output for
// BenchmarkAllSourcesBFS, BenchmarkNeighborGen and BenchmarkRouteBFS into
// the machine-independent ratios tracked in BENCH_PR4.json, and
// optionally gates them against a checked-in baseline.
//
// Raw ns/op numbers vary by machine, so CI cannot compare them against a
// committed file.  The *ratios* between kernels on the same machine and
// graph — scalar/msbfs and scalar/symmetry for the BFS kernels,
// msbfs/orbits for the orbit-reduced sweep, implicit/csr for neighbor
// generation, walk/search for the route kernel — measure the algorithmic
// trade-off itself and are stable enough to gate on: a change that slows
// the MSBFS kernel relative to the scalar one shrinks its speedup, and a
// codec change that slows implicit rows relative to arena loads grows the
// implicit cost factor, no matter the hardware.  Speedups are gated as
// floors, the implicit cost factor as a ceiling.
//
// The input may hold several passes of the suite (scripts/bench_compare.sh
// runs five).  Sample i of every kernel then comes from pass i, and each
// ratio is the median over passes of the pass's own ratio: a pass's two
// kernels ran back to back on the same host state, so a slow spell on a
// shared host moves both or neither, and the median drops a pass that a
// spell split.
//
// Usage:
//
//	go test -run=NONE -bench='AllSourcesBFS|NeighborGen|RouteBFS' -benchtime=3x . | benchratio -out BENCH_PR4.json [-baseline scripts/bench_baseline_pr4.json]
//
// With -baseline the tool exits nonzero when any family's speedup falls
// below the baseline's by more than the tolerance (default 15%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// FamilyRatios is one family's measured kernels and derived ratios.
// Ns fields are informational (machine-dependent); Speedup and Cost
// fields are what the baseline comparison gates on.
type FamilyRatios struct {
	ScalarNs      float64 `json:"scalar_ns,omitempty"`
	MSBFSNs       float64 `json:"msbfs_ns,omitempty"`
	MSBFSSpeedup  float64 `json:"msbfs_speedup,omitempty"`
	SymmetryNs    float64 `json:"symmetry_ns,omitempty"`
	SymmetrySpeed float64 `json:"symmetry_speedup,omitempty"`
	// Orbits samples: the MSBFS sweep over one orbit representative per
	// cluster of a super-IPG, against the MSBFS sweep over every node.
	OrbitsNs     float64 `json:"orbits_ns,omitempty"`
	OrbitSpeedup float64 `json:"orbit_speedup,omitempty"`
	// NeighborGen samples: the cost factor of regenerating a neighbor
	// row from the rank/unrank codec instead of loading a CSR arena row.
	// Gated as a ceiling — implicit serving must not quietly get slower
	// relative to the arena.
	CSRNs        float64 `json:"ngen_csr_ns,omitempty"`
	ImplicitNs   float64 `json:"ngen_implicit_ns,omitempty"`
	ImplicitCost float64 `json:"implicit_cost,omitempty"`
	// RouteBFS samples: the full-BFS-then-walk route reference against
	// the bidirectional search that returns the same path, both over the
	// codec source.
	RouteWalkNs   float64 `json:"route_walk_ns,omitempty"`
	RouteSearchNs float64 `json:"route_search_ns,omitempty"`
	RouteSpeedup  float64 `json:"route_speedup,omitempty"`
}

// Report is the top-level BENCH_PR4.json document.
type Report struct {
	Benchmark string                  `json:"benchmark"`
	Note      string                  `json:"note"`
	Families  map[string]FamilyRatios `json:"families"`
}

// parseBench extracts per-(family, kernel) ns/op samples, in input order,
// from go-test bench output lines of the form
//
//	BenchmarkAllSourcesBFS/HSN3Q4/scalar-8  3  325575935 ns/op
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		var rest, kernelPrefix string
		switch {
		case strings.HasPrefix(name, "BenchmarkAllSourcesBFS/"):
			rest = strings.TrimPrefix(name, "BenchmarkAllSourcesBFS/")
		case strings.HasPrefix(name, "BenchmarkNeighborGen/"):
			rest = strings.TrimPrefix(name, "BenchmarkNeighborGen/")
			kernelPrefix = "ngen_"
		case strings.HasPrefix(name, "BenchmarkRouteBFS/"):
			rest = strings.TrimPrefix(name, "BenchmarkRouteBFS/")
			kernelPrefix = "route_"
		default:
			continue
		}
		parts := strings.Split(rest, "/")
		if len(parts) != 2 {
			continue
		}
		family := parts[0]
		kernel := kernelPrefix + parts[1]
		// Strip the -GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(kernel, "-"); i > 0 {
			kernel = kernel[:i]
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("benchratio: bad ns/op %q in %q", fields[2], sc.Text())
		}
		if out[family] == nil {
			out[family] = make(map[string][]float64)
		}
		out[family][kernel] = append(out[family][kernel], ns)
	}
	return out, sc.Err()
}

// median returns the middle value of xs, or the mean of the two middle
// ones, without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// pairedRatio is the median over passes of num[i]/den[i], rounded.
func pairedRatio(num, den []float64) float64 {
	rs := make([]float64, min(len(num), len(den)))
	for i := range rs {
		rs[i] = num[i] / den[i]
	}
	return round2(median(rs))
}

// buildReport derives the ratios from the parsed samples, pairing the
// samples of one pass (see pairedRatio); the ns fields are each kernel's
// median.
func buildReport(samples map[string]map[string][]float64) (*Report, error) {
	rep := &Report{
		Benchmark: "BenchmarkAllSourcesBFS+BenchmarkNeighborGen+BenchmarkRouteBFS",
		Note:      "speedup fields are scalar_ns/<kernel>_ns, except orbit_speedup = msbfs_ns/orbits_ns; implicit_cost is ngen_implicit_ns/ngen_csr_ns and route_speedup is route_walk_ns/route_search_ns, all measured on one machine; each ratio is the median over the suite's passes of that pass's ratio, each ns field the median of its samples; the ratios are the gated quantities, raw ns fields are informational",
		Families:  make(map[string]FamilyRatios),
	}
	for family, k := range samples {
		var fr FamilyRatios
		has := func(kernel string) bool { return len(k[kernel]) > 0 }
		if has("scalar") {
			if !has("msbfs") {
				return nil, fmt.Errorf("benchratio: family %s has no msbfs sample", family)
			}
			fr.ScalarNs, fr.MSBFSNs = median(k["scalar"]), median(k["msbfs"])
			fr.MSBFSSpeedup = pairedRatio(k["scalar"], k["msbfs"])
			if has("symmetry") {
				fr.SymmetryNs = median(k["symmetry"])
				fr.SymmetrySpeed = pairedRatio(k["scalar"], k["symmetry"])
			}
			if has("orbits") {
				fr.OrbitsNs = median(k["orbits"])
				fr.OrbitSpeedup = pairedRatio(k["msbfs"], k["orbits"])
			}
		}
		if has("ngen_csr") {
			if !has("ngen_implicit") {
				return nil, fmt.Errorf("benchratio: family %s has incomplete NeighborGen samples", family)
			}
			fr.CSRNs, fr.ImplicitNs = median(k["ngen_csr"]), median(k["ngen_implicit"])
			fr.ImplicitCost = pairedRatio(k["ngen_implicit"], k["ngen_csr"])
		}
		if has("route_walk") {
			if !has("route_search") {
				return nil, fmt.Errorf("benchratio: family %s has incomplete RouteBFS samples", family)
			}
			fr.RouteWalkNs, fr.RouteSearchNs = median(k["route_walk"]), median(k["route_search"])
			fr.RouteSpeedup = pairedRatio(k["route_walk"], k["route_search"])
		}
		if !has("scalar") && !has("ngen_csr") && !has("route_walk") {
			return nil, fmt.Errorf("benchratio: family %s has no usable samples", family)
		}
		rep.Families[family] = fr
	}
	if len(rep.Families) == 0 {
		return nil, fmt.Errorf("benchratio: no benchmark samples on stdin")
	}
	return rep, nil
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}

// compare gates rep against base: any family present in the baseline must
// keep its speedups within tol of the baseline values.  Families new to
// rep pass (the next baseline refresh picks them up); families missing
// from rep fail, since a silently dropped benchmark must not pass CI.
func compare(rep, base *Report, tol float64) []string {
	var problems []string
	names := make([]string, 0, len(base.Families))
	for name := range base.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Families[name]
		cur, ok := rep.Families[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("family %s is in the baseline but was not measured", name))
			continue
		}
		// floor gates one speedup: a kernel absent from the baseline
		// passes; one lost, or more than tol below the baseline, fails.
		floor := func(kernel string, got, want float64) {
			switch {
			case want <= 0:
			case got == 0:
				problems = append(problems, fmt.Sprintf("family %s lost its %s benchmark", name, kernel))
			case got < want*(1-tol):
				problems = append(problems, fmt.Sprintf(
					"family %s %s speedup %.2fx is below baseline %.2fx - %.0f%% = %.2fx",
					name, kernel, got, want, tol*100, want*(1-tol)))
			}
		}
		floor("msbfs", cur.MSBFSSpeedup, b.MSBFSSpeedup)
		if b.ImplicitCost > 0 {
			if cur.ImplicitCost == 0 {
				problems = append(problems, fmt.Sprintf("family %s lost its NeighborGen benchmark", name))
			} else if ceil := b.ImplicitCost * (1 + tol); cur.ImplicitCost > ceil {
				problems = append(problems, fmt.Sprintf(
					"family %s implicit neighbor-gen cost %.2fx is above baseline %.2fx + %.0f%% = %.2fx",
					name, cur.ImplicitCost, b.ImplicitCost, tol*100, ceil))
			}
		}
		floor("route", cur.RouteSpeedup, b.RouteSpeedup)
		floor("symmetry", cur.SymmetrySpeed, b.SymmetrySpeed)
		floor("orbit", cur.OrbitSpeedup, b.OrbitSpeedup)
	}
	return problems
}

func run(in io.Reader, outPath, baselinePath string, tol float64) error {
	samples, err := parseBench(in)
	if err != nil {
		return err
	}
	rep, err := buildReport(samples)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(data)
	}
	if baselinePath == "" {
		return nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchratio: bad baseline %s: %w", baselinePath, err)
	}
	if problems := compare(rep, &base, tol); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchratio: FAIL:", p)
		}
		return fmt.Errorf("benchratio: %d speedup regression(s) vs %s", len(problems), baselinePath)
	}
	fmt.Fprintf(os.Stderr, "benchratio: %d families within %.0f%% of baseline ratios\n", len(base.Families), tol*100)
	return nil
}

func main() {
	out := flag.String("out", "", "write the ratio report JSON here (default stdout)")
	baseline := flag.String("baseline", "", "baseline report to gate speedups against")
	tol := flag.Float64("tol", 0.15, "allowed fractional speedup regression vs baseline")
	flag.Parse()
	if err := run(os.Stdin, *out, *baseline, *tol); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
