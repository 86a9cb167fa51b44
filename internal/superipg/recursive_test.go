package superipg

import (
	"context"
	"testing"

	"ipg/internal/nucleus"
)

func TestRHSNStructure(t *testing.T) {
	// RHSN(2, 2, Q2): nucleus is HSN(2,Q2) (16 nodes, 8 symbols), so the
	// level-2 network has 16^2 = 256 nodes over 16-symbol labels.
	w := RHSN(2, 2, nucleus.Hypercube(2))
	if w.Family != "RHSN" {
		t.Errorf("family = %s", w.Family)
	}
	if w.N() != 256 || w.SymbolLen() != 8 || len(w.Seed()) != 16 {
		t.Fatalf("RHSN(2,2,Q2): N=%d m=%d seed=%d", w.N(), w.SymbolLen(), len(w.Seed()))
	}
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 256 {
		t.Fatalf("materialized %d nodes", g.N())
	}
	// Corollary 4.2: intercluster diameter l-1 = 1 at the outer level.
	tVal, err := w.InterclusterT()
	if err != nil {
		t.Fatal(err)
	}
	if tVal != 1 {
		t.Errorf("RHSN t = %d, want 1", tVal)
	}
	clusterOf, nc := w.Clusters(g)
	if d, _, _ := w.InterclusterDistances(context.Background(), g, clusterOf, nc); d != 1 {
		t.Errorf("measured intercluster diameter = %d, want 1", d)
	}
	// Corollary 4.4: symmetric diameter 2l-2 = 2.
	ts, err := w.SymmetricTS()
	if err != nil {
		t.Fatal(err)
	}
	if ts != w.TheoreticalSymmetricDiameter() {
		t.Errorf("t_S = %d, want %d", ts, w.TheoreticalSymmetricDiameter())
	}
}

func TestRHSNDepth1IsHSN(t *testing.T) {
	a := RHSN(1, 3, nucleus.Hypercube(2))
	b := HSN(3, nucleus.Hypercube(2))
	if a.Family != "HSN" || a.N() != b.N() || a.SymbolLen() != b.SymbolLen() {
		t.Error("RHSN depth 1 should be plain HSN")
	}
}

func TestRHSNDepth3(t *testing.T) {
	// Three levels over Q1: N = ((2^2)^2)^2 = 256.
	w := RHSN(3, 2, nucleus.Hypercube(1))
	if w.N() != 256 {
		t.Fatalf("RHSN(3,2,Q1): N = %d, want 256", w.N())
	}
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	if !u.Connected() {
		t.Error("RHSN should be connected")
	}
}

func TestHFN(t *testing.T) {
	w := HFN(3)
	if w.Family != "HFN" {
		t.Errorf("family = %s", w.Family)
	}
	if w.N() != 64 {
		t.Fatalf("HFN(3,3): N = %d, want 64", w.N())
	}
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Each node: FQ3 degree 4 on-chip + at most one swap link.
	u := g.Undirected()
	if _, max, _ := u.DegreeStats(); max != 5 {
		t.Errorf("HFN(3,3) max degree = %d, want 5", max)
	}
	clusterOf, nc := w.Clusters(g)
	if d, _, _ := w.InterclusterDistances(context.Background(), g, clusterOf, nc); d != 1 {
		t.Errorf("HFN intercluster diameter = %d, want 1", d)
	}
}

func TestAsNucleusRoundTrip(t *testing.T) {
	inner := HSN(2, nucleus.Hypercube(1))
	nuc := inner.AsNucleus()
	if nuc.M != 4 || nuc.SymbolLen() != 4 {
		t.Fatalf("AsNucleus: M=%d m=%d", nuc.M, nuc.SymbolLen())
	}
	g, err := nuc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != inner.N() {
		t.Errorf("nucleus materializes %d nodes, want %d", g.N(), inner.N())
	}
}
