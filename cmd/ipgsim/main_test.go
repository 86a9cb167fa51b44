package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipg/internal/serve"
)

// goldenQueries are the eight golden families of csr_equivalence_test.go
// as family queries; ccc and butterfly have no simulator, so both
// surfaces refuse them.
var goldenQueries = []string{
	"net=hsn&l=3&nucleus=q2",
	"net=ring-cn&l=3&nucleus=q2",
	"net=complete-cn&l=3&nucleus=q2",
	"net=sfn&l=3&nucleus=q2",
	"net=hypercube&dim=6&logm=2",
	"net=torus&k=8&side=2",
	"net=ccc&dim=3",
	"net=butterfly&dim=4&band=2",
}

// flagsOf turns a family query into the equivalent command-line flags.
func flagsOf(q string) []string {
	var out []string
	for _, kv := range strings.Split(q, "&") {
		k, v, _ := strings.Cut(kv, "=")
		out = append(out, "-"+k, v)
	}
	return out
}

// wantLines are the lines ipgsim prints for a /v1/simulate answer; the
// off-chip transmission counts are not in the answer and are left out.
func wantLines(r *serve.SimulateResponse) []string {
	lines := []string{fmt.Sprintf("network: %s (%d nodes)\n", r.Network, r.Nodes)}
	if f := r.Faults; f != nil {
		lines = append(lines, fmt.Sprintf("faults: mode=%s seed=%d routing=%s; dead nodes %d, links %d, chips %d\n",
			f.Mode, f.Seed, f.Routing, f.DeadNodes, f.DeadLinks, f.DeadChips))
	}
	switch r.Workload {
	case "random":
		lines = append(lines,
			fmt.Sprintf("offered 0.200, accepted %.3f packets/node/round; latency %.2f rounds\n", r.Accepted, r.Latency),
			fmt.Sprintf("off-chip transmissions/packet: %.3f; saturated: %v\n", r.OffChip, *r.Saturated))
	case "te":
		lines = append(lines,
			fmt.Sprintf("total exchange: %d packets in %d rounds\n", r.Delivered, r.Rounds),
			fmt.Sprintf(" (%.3f per packet)\n", r.OffChip))
	case "transpose":
		lines = append(lines, fmt.Sprintf("transpose: %d packets in %d rounds; ", r.Delivered, r.Rounds))
	}
	if r.Faults != nil {
		lines = append(lines,
			fmt.Sprintf("packets: injected %d, delivered %d, dropped %d, in flight ", r.Injected, r.Delivered, r.Dropped),
			fmt.Sprintf("; misroute retries %d\n", r.Retried))
	}
	return lines
}

// TestSimulateMatchesServer runs ipgsim in-process on the golden families
// and requires /v1/simulate's numbers for the same seed, for every
// workload both offer, healthy and with three faults; where the server
// answers 400, ipgsim must fail too.
func TestSimulateMatchesServer(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	served := 0
	for _, q := range goldenQueries {
		for _, workload := range []string{"random", "te", "transpose"} {
			for _, faults := range []string{"", "3"} {
				query, args := q+"&workload="+workload, append(flagsOf(q), "-workload", workload)
				if faults != "" {
					query, args = query+"&faults="+faults, append(args, "-faults", faults)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/simulate?"+query, nil))
				var stdout, stderr bytes.Buffer
				code := run(args, &stdout, &stderr)
				if rec.Code != http.StatusOK {
					if rec.Code != http.StatusBadRequest || code == 0 {
						t.Errorf("%s: server status %d, ipgsim exit %d", query, rec.Code, code)
					}
					continue
				}
				served++
				var resp serve.SimulateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if code != 0 {
					t.Errorf("%s: ipgsim exit %d: %s", query, code, stderr.String())
					continue
				}
				for _, line := range wantLines(&resp) {
					if !strings.Contains(stdout.String(), line) {
						t.Errorf("%s: ipgsim output lacks %q:\n%s", query, line, stdout.String())
					}
				}
			}
		}
	}
	if want := 6 * 3 * 2; served != want {
		t.Errorf("%d simulations served, want %d", served, want)
	}
}

// TestUsageErrors checks that command-line mistakes exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "hypercube", "-nucleus", "q4"},
		{"-net", "ccc"},
		{"-net", "hypercube", "-dim", "40"},
		{"-workload", "bogus"},
		{"-rate", "NaN"},
		{"-faults", "1", "-fmode", "adversarial"},
		{"-multipath", "2", "-frouting", "oblivious"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
