package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: ipg
BenchmarkAllSourcesBFS/HSN3Q4/scalar-8         	       3	 300000000 ns/op
BenchmarkAllSourcesBFS/HSN3Q4/msbfs-8          	       3	  50000000 ns/op
BenchmarkAllSourcesBFS/Q12/scalar-8            	       3	 320000000 ns/op
BenchmarkAllSourcesBFS/Q12/msbfs-8             	       3	  40000000 ns/op
BenchmarkAllSourcesBFS/Q12/symmetry-8          	   50000	     80000 ns/op
BenchmarkBFS_CSR/csr-8                         	     100	  10000000 ns/op
PASS
`

func sampleReport(t *testing.T) *Report {
	t.Helper()
	samples, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseAndRatios(t *testing.T) {
	rep := sampleReport(t)
	if len(rep.Families) != 2 {
		t.Fatalf("got %d families, want 2 (unrelated benchmarks must be skipped)", len(rep.Families))
	}
	hsn := rep.Families["HSN3Q4"]
	if hsn.MSBFSSpeedup != 6.0 {
		t.Errorf("HSN3Q4 msbfs speedup = %v, want 6.0", hsn.MSBFSSpeedup)
	}
	if hsn.SymmetrySpeed != 0 {
		t.Errorf("HSN3Q4 is not vertex-transitive; symmetry speedup should be absent, got %v", hsn.SymmetrySpeed)
	}
	q12 := rep.Families["Q12"]
	if q12.MSBFSSpeedup != 8.0 {
		t.Errorf("Q12 msbfs speedup = %v, want 8.0", q12.MSBFSSpeedup)
	}
	if q12.SymmetrySpeed != 4000.0 {
		t.Errorf("Q12 symmetry speedup = %v, want 4000.0", q12.SymmetrySpeed)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	rep := sampleReport(t)
	base := sampleReport(t)
	// A 10% slowdown passes under the default 15% tolerance.
	fr := rep.Families["Q12"]
	fr.MSBFSSpeedup *= 0.90
	rep.Families["Q12"] = fr
	if problems := compare(rep, base, 0.15); len(problems) != 0 {
		t.Errorf("10%% regression under 15%% tolerance should pass, got %v", problems)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	rep := sampleReport(t)
	base := sampleReport(t)
	fr := rep.Families["Q12"]
	fr.MSBFSSpeedup *= 0.5
	rep.Families["Q12"] = fr
	problems := compare(rep, base, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "Q12 msbfs") {
		t.Errorf("50%% regression must fail with one Q12 msbfs problem, got %v", problems)
	}
}

func TestCompareMissingFamilyFails(t *testing.T) {
	rep := sampleReport(t)
	base := sampleReport(t)
	delete(rep.Families, "HSN3Q4")
	problems := compare(rep, base, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "not measured") {
		t.Errorf("dropped family must fail, got %v", problems)
	}
}

func TestCompareLostSymmetryFails(t *testing.T) {
	rep := sampleReport(t)
	base := sampleReport(t)
	fr := rep.Families["Q12"]
	fr.SymmetryNs, fr.SymmetrySpeed = 0, 0
	rep.Families["Q12"] = fr
	problems := compare(rep, base, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "symmetry") {
		t.Errorf("lost symmetry benchmark must fail, got %v", problems)
	}
}

func TestCompareNewFamilyPasses(t *testing.T) {
	rep := sampleReport(t)
	base := sampleReport(t)
	rep.Families["NewFam"] = FamilyRatios{ScalarNs: 1, MSBFSNs: 1, MSBFSSpeedup: 1}
	if problems := compare(rep, base, 0.15); len(problems) != 0 {
		t.Errorf("family absent from baseline must pass, got %v", problems)
	}
}

const routeBench = `BenchmarkRouteBFS/Q12/walk-8      	       3	  40000000 ns/op
BenchmarkRouteBFS/Q12/search-8    	       3	   4000000 ns/op
BenchmarkRouteBFS/WBF9/walk-8     	       3	  14000000 ns/op
BenchmarkRouteBFS/WBF9/search-8   	       3	    700000 ns/op
`

// TestRouteSpeedup: BenchmarkRouteBFS samples become walk/search ratios
// next to a family's BFS ratios, and the gate floors them like the
// MSBFS speedup.
func TestRouteSpeedup(t *testing.T) {
	samples, err := parseBench(strings.NewReader(sampleBench + routeBench))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	q12, wbf := rep.Families["Q12"], rep.Families["WBF9"]
	if q12.RouteSpeedup != 10 || q12.MSBFSSpeedup != 8 {
		t.Errorf("Q12 route speedup %v, msbfs %v; want 10 and 8", q12.RouteSpeedup, q12.MSBFSSpeedup)
	}
	if wbf.RouteSpeedup != 20 || wbf.RouteWalkNs != 14e6 || wbf.RouteSearchNs != 7e5 {
		t.Errorf("WBF9 route-only family = %+v, want speedup 20 from its two samples", wbf)
	}
	base, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	slow := rep.Families["Q12"]
	slow.RouteSpeedup = 8.4 // 16% under the baseline's 10
	rep.Families["Q12"] = slow
	lost := rep.Families["WBF9"]
	lost.RouteSpeedup = 0
	rep.Families["WBF9"] = lost
	problems := compare(rep, base, 0.15)
	if len(problems) != 2 || !strings.Contains(problems[0], "Q12 route speedup") || !strings.Contains(problems[1], "WBF9 lost its route benchmark") {
		t.Errorf("want a Q12 route-speedup regression and a lost WBF9 benchmark, got %v", problems)
	}
	if _, err := buildReport(map[string]map[string][]float64{"Q12": {"route_walk": {1}}}); err == nil {
		t.Error("a walk sample without its search sample must be rejected")
	}
}

const orbitBench = `BenchmarkAllSourcesBFS/SFN3Q4/scalar-8   	       3	 300000000 ns/op
BenchmarkAllSourcesBFS/SFN3Q4/msbfs-8    	       3	  48000000 ns/op
BenchmarkAllSourcesBFS/SFN3Q4/orbits-8   	     400	   3000000 ns/op
`

// TestOrbitSpeedup: an orbits sample becomes msbfs/orbits next to the
// family's MSBFS speedup, and the gate floors it like the other speedups.
func TestOrbitSpeedup(t *testing.T) {
	samples, err := parseBench(strings.NewReader(sampleBench + orbitBench))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	sfn := rep.Families["SFN3Q4"]
	if sfn.OrbitSpeedup != 16 || sfn.MSBFSSpeedup != 6.25 || sfn.OrbitsNs != 3e6 {
		t.Errorf("SFN3Q4 = %+v, want orbit speedup 16 and msbfs speedup 6.25", sfn)
	}
	if rep.Families["Q12"].OrbitSpeedup != 0 {
		t.Error("a family without an orbits sample must have no orbit speedup")
	}
	base, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	slow := rep.Families["SFN3Q4"]
	slow.OrbitSpeedup = 13.4 // 16% under the baseline's 16
	rep.Families["SFN3Q4"] = slow
	problems := compare(rep, base, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "SFN3Q4 orbit speedup") {
		t.Errorf("want one SFN3Q4 orbit-speedup regression, got %v", problems)
	}
	slow.OrbitSpeedup = 0
	rep.Families["SFN3Q4"] = slow
	problems = compare(rep, base, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "SFN3Q4 lost its orbit benchmark") {
		t.Errorf("want a lost SFN3Q4 orbit benchmark, got %v", problems)
	}
}

// TestRepeatedPassesPairSamples: with several passes of the suite each
// kernel prints one line per pass; a ratio is the median over passes of
// that pass's own ratio, so a pass slowed on one kernel only drops out,
// and the ns fields are per-kernel medians.
func TestRepeatedPassesPairSamples(t *testing.T) {
	pass := func(scalar, msbfs, sym string) string {
		return "BenchmarkAllSourcesBFS/Q12/scalar-8  3  " + scalar + " ns/op\n" +
			"BenchmarkAllSourcesBFS/Q12/msbfs-8  3  " + msbfs + " ns/op\n" +
			"BenchmarkAllSourcesBFS/Q12/symmetry-8  10000  " + sym + " ns/op\n"
	}
	// Pass 2 ran slow on everything (ratios unchanged); pass 3 caught a
	// slow spell during msbfs and symmetry only.
	input := pass("320000000", "40000000", "80000") +
		pass("480000000", "60000000", "120000") +
		pass("320000000", "80000000", "160000")
	samples, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples["Q12"]["msbfs"]; len(got) != 3 || got[2] != 80e6 {
		t.Fatalf("msbfs samples = %v, want three in pass order", got)
	}
	rep, err := buildReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	q12 := rep.Families["Q12"]
	if q12.MSBFSSpeedup != 8 || q12.SymmetrySpeed != 4000 {
		t.Errorf("msbfs %v, symmetry %v; want 8 and 4000, the passes' median ratios", q12.MSBFSSpeedup, q12.SymmetrySpeed)
	}
	if q12.ScalarNs != 320e6 || q12.MSBFSNs != 60e6 || q12.SymmetryNs != 120e3 {
		t.Errorf("ns fields = %v / %v / %v, want the per-kernel medians 320e6 / 60e6 / 120e3", q12.ScalarNs, q12.MSBFSNs, q12.SymmetryNs)
	}
	if _, err := parseBench(strings.NewReader("BenchmarkAllSourcesBFS/Q12/scalar-8  3  0 ns/op\n")); err == nil {
		t.Error("a zero ns/op sample must be rejected")
	}
}
