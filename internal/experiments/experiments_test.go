package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// smallTranscript is the committed output of paperbench -exp all.
const smallTranscript = "../../docs/paperbench-small.txt"

// TestAllExperimentsPass runs the full reproduction suite at Small scale:
// every paper-vs-measured check must hold, and the results, rendered
// exactly as paperbench -exp all prints them, must match the committed
// transcript byte for byte.
func TestAllExperimentsPass(t *testing.T) {
	results, err := RunAll(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results for %d experiments", len(results), len(IDs()))
	}
	var b strings.Builder
	passed := 0
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("experiment %s failed:\n%s", r.ID, r)
		} else {
			passed++
		}
		if len(r.Checks) == 0 {
			t.Errorf("experiment %s has no checks", r.ID)
		}
		fmt.Fprintln(&b, r)
	}
	fmt.Fprintf(&b, "%d/%d experiments passed all checks\n", passed, len(results))
	want, err := os.ReadFile(smallTranscript)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < min(len(gotLines), len(wantLines)) && gotLines[line] == wantLines[line] {
			line++
		}
		at := func(lines []string) string {
			if line < len(lines) {
				return lines[line]
			}
			return "<end of transcript>"
		}
		t.Errorf("transcript differs from %s at line %d:\n got: %s\nwant: %s\n"+
			"only for a deliberate re-pin, regenerate it from the repository root with:\n"+
			"  go run ./cmd/paperbench -exp all > docs/paperbench-small.txt",
			smallTranscript, line+1, at(gotLines), at(wantLines))
	}
}

// TestPaperScaleCheapExperiments exercises the Paper-scale code paths of
// every experiment but E15 throughput, whose rate sweep takes about a
// minute at paper scale and is covered by cmd/paperbench -scale paper.
func TestPaperScaleCheapExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs skipped in -short mode")
	}
	for _, id := range []string{
		"fig1a", "fig1b", "dim11", "symmetric", "ascend-ghc", "mnb-te", "ic-diameter", "optimality", "embeddings", "multilevel", "wormhole",
		"offchip", "ii-cost", "ascend", "transpose", "design-sweep", "sdc", "bisection-base", "bisection-hsn", "worked-example", "te-intercluster",
	} {
		res, err := Run(id, Paper)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !res.Passed() {
			t.Errorf("%s failed at paper scale:\n%s", id, res)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Small); err == nil {
		t.Error("unknown id should error")
	}
}

func TestResultRendering(t *testing.T) {
	r, err := Run("dim11", Small)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"E3/dim11", "HSN(4,Q4)", "T3", "[ok  ]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 22 {
		t.Errorf("expected 22 experiments, got %d: %v", len(ids), ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestFig1bChecks(t *testing.T) {
	r, err := Run("fig1b", Small)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("fig1b failed:\n%s", r)
	}
	found93 := false
	for _, c := range r.Checks {
		if strings.Contains(c.Paper, "93%") {
			found93 = true
		}
	}
	if !found93 {
		t.Error("fig1b should check the 93% utilization claim")
	}
}
