package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipg/internal/serve"
)

// goldenQueries are the eight golden families of csr_equivalence_test.go
// as family queries, plus WBF(4): WBF(3) has an odd number of level bands
// at every band width, so every surface refuses it with the same message.
var goldenQueries = []string{
	"net=hsn&l=3&nucleus=q2",
	"net=ring-cn&l=3&nucleus=q2",
	"net=complete-cn&l=3&nucleus=q2",
	"net=sfn&l=3&nucleus=q2",
	"net=hypercube&dim=6&logm=2",
	"net=torus&k=8&side=2",
	"net=ccc&dim=3",
	"net=butterfly&dim=3&band=1",
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

// TestJSONMatchesServer runs ipgtool -json in-process on the golden
// families, with and without -diameter, and requires the bytes ipgd's
// /v1/metrics serves; where the server answers 400, ipgtool must fail
// with the same message.
func TestJSONMatchesServer(t *testing.T) {
	srv := serve.NewServer(serve.Config{MaxNodes: materializeCap})
	served := 0
	for _, q := range goldenQueries {
		for _, diameter := range []string{"", "&diameter=1"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics?"+q+diameter, nil))
			args := append(flagsOf(q), "-json")
			if diameter != "" {
				args = append(args, "-diameter")
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			switch rec.Code {
			case http.StatusOK:
				served++
				if code != 0 || stdout.String() != rec.Body.String() {
					t.Errorf("%s%s: ipgtool exit %d, stderr %q; stdout differs from /v1/metrics:\n%s\nwant:\n%s",
						q, diameter, code, stderr.String(), stdout.String(), rec.Body.String())
				}
			case http.StatusBadRequest:
				var e struct{ Error string }
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatal(err)
				}
				if code == 0 || stderr.String() != "ipgtool: "+e.Error+"\n" {
					t.Errorf("%s%s: server refused with %q; ipgtool exit %d, stderr %q", q, diameter, e.Error, code, stderr.String())
				}
			default:
				t.Errorf("%s%s: /v1/metrics status %d: %s", q, diameter, rec.Code, rec.Body.String())
			}
		}
	}
	if want := 2 * (len(goldenQueries) - 1); served != want {
		t.Errorf("%d documents served, want %d", served, want)
	}
}

// TestTextRendersDocument checks that the text mode prints one row per
// field of the -json document, including instances only a codec can
// serve, and runs a distance sweep only under -diameter.
func TestTextRendersDocument(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "hsn", "-l", "3", "-nucleus", "q2"},
		{"-net", "hypercube", "-dim", "14", "-logm", "2"},
		{"-net", "hypercube", "-dim", "30", "-logm", "2"},
		{"-net", "torus", "-k", "2560", "-side", "4"},
		{"-net", "torus", "-k", "8", "-side", "2", "-diameter"},
	} {
		var text, js, stderr bytes.Buffer
		if code := run(args, &text, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if code := run(append(args, "-json"), &js, &stderr); code != 0 {
			t.Fatalf("%v -json: exit %d: %s", args, code, stderr.String())
		}
		var doc map[string]any
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		rows := strings.Count(text.String(), "\n") - 2 // header and rule
		if leaves := countLeaves(doc); rows != leaves {
			t.Errorf("%v: %d table rows, want one per document field (%d):\n%s", args, rows, leaves, text.String())
		}
		_, hasDiameter := doc["diameter"]
		if swept := strings.Contains(text.String(), "\ndiameter "); swept != hasDiameter || hasDiameter != (args[len(args)-1] == "-diameter") {
			t.Errorf("%v: diameter row %v, document diameter %v", args, swept, hasDiameter)
		}
	}
}

func countLeaves(v any) int {
	m, ok := v.(map[string]any)
	if !ok {
		return 1
	}
	n := 0
	for _, c := range m {
		n += countLeaves(c)
	}
	return n
}

// TestUsageErrors checks that command-line mistakes exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "hypercube", "-nucleus", "q4"},
		{"-net", "bogus"},
		{"-net", "torus", "-schedule"},
		{"-json", "-schedule"},
		{"-impl", "arena"},
		{"-net", "hsn", "-l", "6", "-nucleus", "q4", "-dot", "unused.dot"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
