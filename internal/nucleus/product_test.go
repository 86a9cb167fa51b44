package nucleus

import (
	"testing"

	"ipg/internal/perm"
)

func TestProductStructure(t *testing.T) {
	p := Product(Hypercube(2), Complete(3))
	if p.M != 12 {
		t.Fatalf("Q2 x K3: M = %d, want 12", p.M)
	}
	if p.SymbolLen() != 4+3 {
		t.Errorf("symbol length = %d, want 7", p.SymbolLen())
	}
	if p.NumGens() != 2+2 {
		t.Errorf("generators = %d, want 4", p.NumGens())
	}
	if p.NumDims() != 3 {
		t.Errorf("dims = %d, want 3", p.NumDims())
	}
	if r := p.Radices(); r[0] != 2 || r[1] != 2 || r[2] != 3 {
		t.Errorf("radices = %v", r)
	}
	g, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("materialized %d nodes", g.N())
	}
	u := g.Undirected()
	// Q2 x K3 degree: 2 + 2 = 4.
	if reg, d := u.IsRegular(); !reg || d != 4 {
		t.Errorf("degree = %v,%d want 4", reg, d)
	}
	// Address round trip covers both factors' digit logic.
	for a := 0; a < p.M; a++ {
		l, err := p.LabelOf(a)
		if err != nil {
			t.Fatal(err)
		}
		back, err := p.AddressOf(l)
		if err != nil {
			t.Fatal(err)
		}
		if back != a {
			t.Fatalf("roundtrip %d -> %v -> %d", a, l, back)
		}
	}
}

func TestPowerMatchesHypercube(t *testing.T) {
	// Q2^2 is structurally Q4: same node count, degree, diameter.
	p := Power(Hypercube(2), 2)
	if p.M != 16 || p.NumDims() != 4 {
		t.Fatalf("Q2^2: M=%d dims=%d", p.M, p.NumDims())
	}
	g, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	if d := u.Diameter(); d != 4 {
		t.Errorf("Q2^2 diameter = %d, want 4", d)
	}
	if p.Name != "Q2^2" {
		t.Errorf("name = %s", p.Name)
	}
	if one := Power(Hypercube(3), 1); one.Name != "Q3" {
		t.Errorf("Power(_,1) should be the nucleus itself, got %s", one.Name)
	}
}

func TestDimBitsAndTotalBits(t *testing.T) {
	nu := GeneralizedHypercube(4, 2, 8)
	want := []int{2, 1, 3}
	for d, w := range want {
		b, err := nu.DimBits(d)
		if err != nil || b != w {
			t.Errorf("DimBits(%d) = %d, %v; want %d", d, b, err, w)
		}
	}
	if total, err := nu.TotalBits(); err != nil || total != 6 {
		t.Errorf("TotalBits = %d, %v; want 6", total, err)
	}
	bad := GeneralizedHypercube(3, 2)
	if _, err := bad.DimBits(0); err == nil {
		t.Error("radix 3 should not be a power of two")
	}
	if _, err := bad.TotalBits(); err == nil {
		t.Error("TotalBits should fail on radix 3")
	}
}

func TestSetEnumeration(t *testing.T) {
	nu := &Nucleus{Name: "enum", Seed: perm.MustParseLabel("012"), M: 3,
		Gens: perm.GenSet{perm.Gen("r", perm.RotateLeft(3, 1))}}
	labels := []perm.Label{
		perm.MustParseLabel("012"),
		perm.MustParseLabel("120"),
		perm.MustParseLabel("201"),
	}
	if err := nu.SetEnumeration(labels); err != nil {
		t.Fatal(err)
	}
	for a, l := range labels {
		got, err := nu.AddressOf(l)
		if err != nil || got != a {
			t.Errorf("AddressOf(%v) = %d, %v", l, got, err)
		}
		back, err := nu.LabelOf(a)
		if err != nil || !back.Equal(l) {
			t.Errorf("LabelOf(%d) = %v, %v", a, back, err)
		}
	}
	if _, err := nu.AddressOf(perm.MustParseLabel("000")); err == nil {
		t.Error("unknown label should error")
	}
	// Validation failures.
	if err := nu.SetEnumeration(labels[:2]); err == nil {
		t.Error("wrong count should error")
	}
	if err := nu.SetEnumeration([]perm.Label{labels[0], labels[0], labels[1]}); err == nil {
		t.Error("duplicate label should error")
	}
	if err := nu.SetEnumeration([]perm.Label{labels[0], labels[1], perm.MustParseLabel("01")}); err == nil {
		t.Error("wrong-length label should error")
	}
}
