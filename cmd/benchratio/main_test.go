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
	if _, err := buildReport(map[string]map[string]float64{"Q12": {"route_walk": 1}}); err == nil {
		t.Error("a walk sample without its search sample must be rejected")
	}
}
