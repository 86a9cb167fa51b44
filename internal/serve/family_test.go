package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// familyGridValues are the values the grid tries for each parameter.
// Combinations a family rejects (a side that does not divide k, logm >=
// dim) are part of the grid: they must be 400s too.
var familyGridValues = map[string][]string{
	"l":       {"2", "3"},
	"nucleus": {"q1", "q2", "q3", "k2", "k3", "c3", "s2", "s3", "fq2", "ghc:2,3"},
	"dim":     intRange(1, 8),
	"logm":    intRange(0, 8),
	"k":       intRange(2, 12),
	"side":    intRange(1, 12),
	"band":    intRange(1, 8),
}

func intRange(lo, hi int) []string {
	var out []string
	for v := lo; v <= hi; v++ {
		out = append(out, strconv.Itoa(v))
	}
	return out
}

// familyGrid returns the grid's queries for one family: every combination
// of grid values over the parameters its table entry consumes.
func familyGrid(net string) []string {
	queries := []string{"net=" + net}
	for _, pn := range provNames {
		if familyTable[net].params&pn.bit == 0 {
			continue
		}
		var next []string
		for _, q := range queries {
			for _, v := range familyGridValues[pn.name] {
				next = append(next, q+"&"+pn.name+"="+v)
			}
		}
		queries = next
	}
	return queries
}

// TestFamilyGridNo5xx walks small instances (N <= 4,096) of every family
// in the table through every family endpoint: each answer must be a 200
// or a 400, never a 5xx, and no family's breaker may open.  The families
// come from the table, so a new entry is covered without editing this
// test.
func TestFamilyGridNo5xx(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec
	}
	served := map[string]int{}
	for _, net := range Families() {
		for _, q := range familyGrid(net) {
			// Instances /v1/build refuses go through every endpoint too.
			dst := 1
			if rec := get("/v1/build?" + q); rec.Code == http.StatusOK {
				var b BuildResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
					t.Fatalf("build %s: %v", q, err)
				}
				if b.Nodes > 4096 {
					continue
				}
				served[net]++
				dst = b.Nodes - 1
			}
			get("/v1/metrics?" + q)
			get("/v1/metrics?diameter=1&" + q)
			get("/v1/route?src=0&dst=" + strconv.Itoa(dst) + "&" + q)
			get("/v1/simulate?warmup=10&measure=40&" + q)
		}
	}
	for _, net := range Families() {
		if served[net] == 0 {
			t.Errorf("no grid instance of %s was served", net)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if open := promValue(t, rec.Body.String(), "ipgd_breaker_open"); open != 0 {
		t.Errorf("ipgd_breaker_open = %v after the grid, want 0", open)
	}
}
