package superipg

import (
	"context"
	"testing"

	"ipg/internal/nucleus"
	"ipg/internal/perm"
)

func allFamilies(l int, nuc *nucleus.Nucleus) []*Network {
	return []*Network{
		HSN(l, nuc),
		RingCN(l, nuc),
		CompleteCN(l, nuc),
		SFN(l, nuc),
	}
}

func TestNodeCounts(t *testing.T) {
	nuc := nucleus.Hypercube(2)
	for _, w := range allFamilies(3, nuc) {
		g, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if g.N() != 64 {
			t.Errorf("%s: %d nodes, want 64 = M^l", w.Name(), g.N())
		}
	}
}

func TestHSNQ4MatchesPaperNumbers(t *testing.T) {
	// Section 4 of the paper: "a 16-node cluster of an HSN(3,Q4) has 30
	// intercluster links", i.e. 2(M-1) = 30 per cluster, and the average
	// intercluster distance is (l-1)(M-1)/M = 1.875.
	w := HSN(3, nucleus.Hypercube(4))
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4096 {
		t.Fatalf("HSN(3,Q4) has %d nodes, want 4096", g.N())
	}
	clusterOf, nc := w.Clusters(g)
	if nc != 256 {
		t.Fatalf("HSN(3,Q4) has %d clusters, want 256", nc)
	}
	links := w.InterclusterLinks(g.Undirected(), clusterOf)
	// 30 links per cluster, each link touches 2 clusters: 256*30/2 = 3840.
	if links != 3840 {
		t.Errorf("total intercluster links = %d, want 3840", links)
	}
	if d := w.InterclusterDegree(g, clusterOf, nc); d != 30.0/16.0 {
		t.Errorf("intercluster degree = %v, want 1.875", d)
	}
	d, a, err := w.InterclusterDistances(context.Background(), g, clusterOf, nc)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("intercluster diameter = %d, want l-1 = 2", d)
	}
	if a != 1.875 {
		t.Errorf("avg intercluster distance = %v, want 1.875", a)
	}
}

func TestCorollary42InterclusterT(t *testing.T) {
	// Corollary 4.2: intercluster diameter = l-1 for HSN, RCC, CN
	// (ring and complete), directed CN, and SFN.
	nuc := nucleus.Hypercube(2)
	for l := 2; l <= 5; l++ {
		nets := allFamilies(l, nuc)
		nets = append(nets, DirectedCN(l, nuc))
		for _, w := range nets {
			got, err := w.InterclusterT()
			if err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			if got != l-1 {
				t.Errorf("%s: t = %d, want %d", w.Name(), got, l-1)
			}
		}
	}
	rcc := RCC(2, nucleus.Hypercube(2))
	if got, _ := rcc.InterclusterT(); got != 1 {
		t.Errorf("RCC(2,Q2): t = %d, want 1", got)
	}
}

func TestInterclusterTMatchesMeasuredDiameter(t *testing.T) {
	// Theorem 4.1: the measured intercluster diameter (quotient BFS on the
	// materialized graph) equals t for every family.
	nuc := nucleus.Hypercube(2)
	for l := 2; l <= 4; l++ {
		for _, w := range allFamilies(l, nuc) {
			g, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			tVal, err := w.InterclusterT()
			if err != nil {
				t.Fatal(err)
			}
			clusterOf, nc := w.Clusters(g)
			if got, _, _ := w.InterclusterDistances(context.Background(), g, clusterOf, nc); got != tVal {
				t.Errorf("%s: measured intercluster diameter %d != t %d", w.Name(), got, tVal)
			}
		}
	}
}

func TestCorollary44SymmetricTS(t *testing.T) {
	// Corollary 4.4: t_S is l for complete-CN, 2l-2 for HSN/SFN, and
	// 2, 3, floor(1.5l)-2 for ring-CN with l = 2, 3, >= 4.
	nuc := nucleus.Hypercube(1)
	for l := 2; l <= 6; l++ {
		for _, w := range allFamilies(l, nuc) {
			want := w.TheoreticalSymmetricDiameter()
			if want < 0 {
				t.Fatalf("%s: no closed form", w.Name())
			}
			got, err := w.SymmetricTS()
			if err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			if w.Family == "SFN" && l >= 6 {
				// For SFN the corollary's 2l-2 is exact only up to l=5;
				// beyond that pancake-style interleaved routing beats the
				// generic visit-then-rearrange strategy, so the closed form
				// is an upper bound (measured: t_S = 8 < 10 at l = 6).
				if got > want {
					t.Errorf("%s: t_S = %d exceeds upper bound %d", w.Name(), got, want)
				}
				continue
			}
			if got != want {
				t.Errorf("%s: t_S = %d, want %d", w.Name(), got, want)
			}
		}
	}
}

func TestBringRestoreWords(t *testing.T) {
	nuc := nucleus.Hypercube(2)
	for l := 2; l <= 5; l++ {
		nets := allFamilies(l, nuc)
		nets = append(nets, DirectedCN(l, nuc))
		for _, w := range nets {
			for i := 2; i <= l; i++ {
				arr := perm.Identity(l)
				apply := func(word []int) {
					for _, gi := range word {
						act := w.SuperAction(gi - w.NumNucGens())
						next := make(perm.Perm, l)
						for pos := 0; pos < l; pos++ {
							next[pos] = arr[act[pos]]
						}
						arr = next
					}
				}
				apply(w.BringToFront(i))
				if arr[0] != i-1 {
					t.Fatalf("%s: BringToFront(%d) put group %d at front", w.Name(), i, arr[0]+1)
				}
				apply(w.RestoreFromFront(i))
				if !arr.IsIdentity() {
					t.Fatalf("%s: RestoreFromFront(%d) left arrangement %v", w.Name(), i, arr)
				}
			}
		}
	}
}

func TestAddressRoundTrip(t *testing.T) {
	w := CompleteCN(3, nucleus.Hypercube(2))
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, w.N())
	for v := 0; v < g.N(); v++ {
		addr, err := w.AddressOf(g.Label(v))
		if err != nil {
			t.Fatal(err)
		}
		if addr < 0 || addr >= w.N() || seen[addr] {
			t.Fatalf("bad or duplicate address %d", addr)
		}
		seen[addr] = true
		back, err := w.LabelOf(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(g.Label(v)) {
			t.Fatalf("roundtrip mismatch at %d", v)
		}
	}
}

func TestHCNIsHSN2(t *testing.T) {
	w := HCN(3)
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 {
		t.Fatalf("HCN(3,3): %d nodes, want 64", g.N())
	}
	// Each node: 3 cube links + at most 1 swap link.
	u := g.Undirected()
	if _, max, _ := u.DegreeStats(); max != 4 {
		t.Errorf("HCN(3,3) max degree = %d, want 4", max)
	}
	if w.Name() != "HCN(2,Q3)" {
		t.Errorf("name = %s", w.Name())
	}
}

func TestRCCSeedMatchesPaper(t *testing.T) {
	// RCC(2,Q4): 32-symbol seed 01 01 ... 01 and super-generator T_{2,16},
	// the structure the Section 3.1 example relies on.
	w := RCC(2, nucleus.Hypercube(4))
	if got := w.Seed().String(); got != "01010101010101010101010101010101" {
		t.Errorf("RCC(2,Q4) seed = %s", got)
	}
	if w.L != 2 || w.SymbolLen() != 16 {
		t.Errorf("RCC(2,Q4): l=%d m=%d, want 2,16", w.L, w.SymbolLen())
	}
	if w.N() != 65536 {
		t.Errorf("RCC(2,Q4): N=%d, want 65536 (16-cube size)", w.N())
	}
	if w.NumSupers() != 1 {
		t.Errorf("RCC(2,Q4) supers = %d, want 1 (T2)", w.NumSupers())
	}
}

func TestGeneratorPartition(t *testing.T) {
	w := HSN(3, nucleus.Hypercube(2))
	if w.NumNucGens() != 2 || w.NumSupers() != 2 {
		t.Fatalf("gens split = %d,%d", w.NumNucGens(), w.NumSupers())
	}
	for gi := range w.Gens() {
		if w.IsSuper(gi) != (gi >= 2) {
			t.Errorf("IsSuper(%d) wrong", gi)
		}
	}
}

func TestRingCNUsesShortestRotation(t *testing.T) {
	w := RingCN(6, nucleus.Hypercube(1))
	// Group 2: 1 left shift; group 6: 1 right shift.
	if len(w.BringToFront(2)) != 1 || len(w.BringToFront(6)) != 1 {
		t.Error("ring-CN should rotate the short way")
	}
	if len(w.BringToFront(4)) != 3 {
		t.Errorf("ring-CN bring group 4 takes %d steps, want 3", len(w.BringToFront(4)))
	}
}

func TestTransitionWordsAllFamilies(t *testing.T) {
	// TransitionWord(f, t) must move the canonical arrangement with front
	// f to the canonical arrangement with front t, for every (f, t) pair.
	nuc := nucleus.Hypercube(1)
	for l := 2; l <= 5; l++ {
		for _, w := range append(allFamilies(l, nuc), DirectedCN(l, nuc)) {
			canonical := func(f int) perm.Perm {
				arr := perm.Identity(l)
				if f != 1 {
					for _, gi := range w.BringToFront(f) {
						act := w.SuperAction(gi - w.NumNucGens())
						next := make(perm.Perm, l)
						for pos := 0; pos < l; pos++ {
							next[pos] = arr[act[pos]]
						}
						arr = next
					}
				}
				return arr
			}
			for f := 1; f <= l; f++ {
				for to := 1; to <= l; to++ {
					arr := canonical(f)
					for _, gi := range w.TransitionWord(f, to) {
						act := w.SuperAction(gi - w.NumNucGens())
						next := make(perm.Perm, l)
						for pos := 0; pos < l; pos++ {
							next[pos] = arr[act[pos]]
						}
						arr = next
					}
					if !arr.Equal(canonical(to)) {
						t.Fatalf("%s: transition %d->%d gives %v, want %v", w.Name(), f, to, arr, canonical(to))
					}
					// FinalWord is the transition to front 1.
					if to == 1 && len(w.FinalWord(f)) != len(w.TransitionWord(f, 1)) {
						t.Fatalf("%s: FinalWord(%d) differs from TransitionWord(%d,1)", w.Name(), f, f)
					}
				}
			}
		}
	}
}

func TestSmallAccessors(t *testing.T) {
	w := HSN(3, nucleus.Hypercube(2))
	if w.M() != 4 {
		t.Errorf("M = %d", w.M())
	}
	if w.TheoreticalInterclusterDiameter() != 2 {
		t.Error("closed-form ic diameter wrong")
	}
	if w.ClusterKey(w.Seed()) != string(w.Seed()[4:]) {
		t.Error("ClusterKey wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("BringToFront(1) should panic")
		}
	}()
	w.BringToFront(1)
}

func TestQuotientStructureHSN2(t *testing.T) {
	// HSN(2, Q2): quotient is K4 plus possibly missing edges? Each cluster
	// X2 connects to cluster A for every A != X2 via the swap: quotient is
	// the complete graph K_M.
	w := HSN(2, nucleus.Hypercube(2))
	g := w.MustBuild()
	clusterOf, nc := w.Clusters(g)
	q := w.Quotient(g, clusterOf, nc)
	if q.N() != 4 || q.M() != 6 {
		t.Errorf("HSN(2,Q2) quotient: n=%d m=%d, want K4", q.N(), q.M())
	}
}

func TestDirectedInterclusterDiameter(t *testing.T) {
	// Corollary 4.2 covers directed CNs too: measured directed quotient
	// diameter equals l-1.
	for l := 2; l <= 4; l++ {
		w := DirectedCN(l, nucleus.Hypercube(2))
		g, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		if d := w.DirectedInterclusterDiameter(g); d != l-1 {
			t.Errorf("directed-CN(%d): measured %d, want %d", l, d, l-1)
		}
	}
	// Undirected families agree with the symmetric computation.
	w := HSN(3, nucleus.Hypercube(2))
	g := w.MustBuild()
	clusterOf, nc := w.Clusters(g)
	ud, _, _ := w.InterclusterDistances(context.Background(), g, clusterOf, nc)
	if d := w.DirectedInterclusterDiameter(g); d != ud {
		t.Errorf("directed and undirected quotient diameters disagree on HSN: %d", d)
	}
}

func TestStarNucleusSuperIPG(t *testing.T) {
	// A super-IPG over a star-graph nucleus (the construction behind
	// macro-star networks, [28] in the paper): N = (n!)^l, intercluster
	// diameter l-1.
	w := HSN(2, nucleus.Star(3))
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 36 {
		t.Fatalf("HSN(2,S3): %d nodes, want 36", g.N())
	}
	clusterOf, nc := w.Clusters(g)
	if d, _, _ := w.InterclusterDistances(context.Background(), g, clusterOf, nc); d != 1 {
		t.Errorf("intercluster diameter %d, want 1", d)
	}
	tv, err := w.InterclusterT()
	if err != nil || tv != 1 {
		t.Errorf("t = %d, %v", tv, err)
	}
}

func TestDirectedCNNotInverseClosed(t *testing.T) {
	w := DirectedCN(3, nucleus.Hypercube(1))
	supers := w.Gens()[w.NumNucGens():]
	if supers.ClosedUnderInverse() {
		t.Error("directed CN super set should not be inverse-closed")
	}
}
