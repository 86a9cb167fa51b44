package ipg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ipg/internal/perm"
)

// section2Spec is the worked IPG example from Section 2 of the paper:
// seed 123321 with generators 213456, 321456, 456123 yields 36 nodes.
func section2Spec() Spec {
	return Spec{
		Name: "paper-sec2",
		Seed: perm.MustParseLabel("123321"),
		Gens: perm.GenSet{
			perm.Gen("p1", perm.FromImage(2, 1, 3, 4, 5, 6)),
			perm.Gen("p2", perm.FromImage(3, 2, 1, 4, 5, 6)),
			perm.Gen("p3", perm.FromImage(4, 5, 6, 1, 2, 3)),
		},
	}
}

func TestSection2Example(t *testing.T) {
	g := MustBuild(section2Spec())
	if g.N() != 36 {
		t.Fatalf("paper example: %d nodes, want 36", g.N())
	}
	// The three listed neighbors of the seed, which is node 0.
	seed := 0
	wantNbrs := []string{"213321", "321321", "321123"}
	for gi, want := range wantNbrs {
		nb := g.Neighbor(seed, gi)
		if got := g.Label(nb).String(); got != want {
			t.Errorf("generator %d neighbor = %s, want %s", gi, got, want)
		}
	}
	// Generators here are involutions, so the graph is undirected.  It is
	// not regular: labels fixed by a generator (e.g. 321321 under the
	// half-swap 456123) lose that edge to a self-loop.
	u := g.Undirected()
	if !u.Connected() {
		t.Error("IPG should be connected by construction")
	}
	if _, max, _ := u.DegreeStats(); max != 3 {
		t.Errorf("max degree = %d, want 3", max)
	}
	if !g.Gens[2].P.Fixes(perm.MustParseLabel("321321")) {
		t.Error("456123 should fix 321321")
	}
}

func TestCayleySpecialCase(t *testing.T) {
	// With all-distinct seed symbols, the IPG on transpositions (1,i) is
	// the star graph S_n: n! nodes, (n-1)-regular, a classic Cayley graph.
	n := 4
	gens := perm.GenSet{}
	for i := 2; i <= n; i++ {
		gens = append(gens, perm.Gen("t", perm.Transposition(n, 0, i-1)))
	}
	g := MustBuild(Spec{Name: "star4", Seed: perm.MustParseLabel("1234"), Gens: gens})
	if g.N() != 24 {
		t.Fatalf("S4 nodes = %d, want 24", g.N())
	}
	u := g.Undirected()
	if reg, d := u.IsRegular(); !reg || d != 3 {
		t.Errorf("S4 should be 3-regular, got %v,%d", reg, d)
	}
	if diam := u.Diameter(); diam != 4 {
		t.Errorf("S4 diameter = %d, want 4", diam)
	}
}

func TestRepeatedSymbolsShrinkGraph(t *testing.T) {
	// Same generators as star graph S3 but seed with repeats: fewer nodes.
	gens := perm.GenSet{
		perm.Gen("t2", perm.Transposition(3, 0, 1)),
		perm.Gen("t3", perm.Transposition(3, 0, 2)),
	}
	distinct := MustBuild(Spec{Name: "s3", Seed: perm.MustParseLabel("123"), Gens: gens})
	repeated := MustBuild(Spec{Name: "s3r", Seed: perm.MustParseLabel("122"), Gens: gens})
	if distinct.N() != 6 {
		t.Errorf("distinct seed: %d nodes, want 6", distinct.N())
	}
	if repeated.N() != 3 {
		t.Errorf("repeated seed: %d nodes, want 3", repeated.N())
	}
}

func TestSelfLoops(t *testing.T) {
	// Seed 11 with the swap generator: single node, all actions loops.
	g := MustBuild(Spec{
		Name: "loop",
		Seed: perm.MustParseLabel("11"),
		Gens: perm.GenSet{perm.Gen("t", perm.Transposition(2, 0, 1))},
	})
	if g.N() != 1 || g.Neighbor(0, 0) != 0 || !g.IsLoop(0, 0) {
		t.Errorf("loop graph: n=%d, generator 0 leads to %d", g.N(), g.Neighbor(0, 0))
	}
}

// TestWalkAndApplyWordAgree walks random generator words along the
// adjacency and checks that each walk lands on the node whose label the
// same word produces from the start label.
func TestWalkAndApplyWordAgree(t *testing.T) {
	g := MustBuild(section2Spec())
	r := rand.New(rand.NewSource(5))
	next := make(perm.Label, len(g.Seed))
	for trial := 0; trial < 50; trial++ {
		v := r.Intn(g.N())
		end, lbl := v, g.Label(v).Clone()
		for range r.Intn(8) {
			gi := r.Intn(g.NumGens())
			end = g.Neighbor(end, gi)
			g.Gens[gi].P.ApplyInto(next, lbl)
			lbl, next = next, lbl
		}
		if got := g.NodeID(lbl); got != end {
			t.Fatalf("walk from %d lands on %d, but the word's label %v is node %d", v, end, lbl, got)
		}
	}
}

func TestNodeID(t *testing.T) {
	g := MustBuild(section2Spec())
	if g.NodeID(perm.MustParseLabel("123321")) != 0 {
		t.Error("seed should be node 0")
	}
	for _, l := range []string{"111111", "12332", "1233211", ""} {
		if got := g.NodeID(perm.MustParseLabel(l)); got != -1 {
			t.Errorf("NodeID(%q) = %d, want -1 (absent or wrong length)", l, got)
		}
	}
	// The seed's largest symbol is 3, so labels pack at 2 bits a symbol,
	// and a larger symbol must not reach its neighbour's bits: packed
	// unchecked, 9 = 0b1001 followed by 0 would read as the seed's 1, 2.
	for _, l := range []string{"903321", "123324", "12332f"} {
		if got := g.NodeID(perm.MustParseLabel(l)); got != -1 {
			t.Errorf("NodeID(%q) = %d, want -1 (symbol outside the alphabet)", l, got)
		}
	}
}

// TestGeneratorEdgeCount splits each generator of the Section 2 example
// into edges and self-loops: a loop in the adjacency is exactly a label
// the generator fixes, and every other node has an edge.  The swaps in
// the first half fix no reachable label (each half of every node holds
// 1, 2 and 3 once), and the half-swap 456123 fixes exactly the 6 labels
// of the form WW, so it contributes N-6 edges.
func TestGeneratorEdgeCount(t *testing.T) {
	g := MustBuild(section2Spec())
	want := []int{0, 0, 6}
	for gi := range g.Gens {
		loops := 0
		for v := 0; v < g.N(); v++ {
			if g.IsLoop(v, gi) != g.Gens[gi].P.Fixes(g.Label(v)) {
				t.Fatalf("generator %d at node %d: loop and fixed label disagree", gi, v)
			}
			if g.IsLoop(v, gi) {
				loops++
			}
		}
		if loops != want[gi] {
			t.Errorf("generator %d has %d self-loops, want %d", gi, loops, want[gi])
		}
	}
}

func TestClustersBy(t *testing.T) {
	g := MustBuild(section2Spec())
	// Cluster on the last 3 symbols: nucleus-like grouping.
	clusterOf, nc := g.ClustersBy(3)
	if nc <= 1 || nc >= g.N() {
		t.Fatalf("implausible cluster count %d", nc)
	}
	// Nodes in the same cluster share suffixes.
	for v := 0; v < g.N(); v++ {
		for w := v + 1; w < g.N(); w++ {
			same := clusterOf[v] == clusterOf[w]
			suffixEq := g.Label(v)[3:].Equal(g.Label(w)[3:])
			if same != suffixEq {
				t.Fatalf("cluster/suffix mismatch at %d,%d", v, w)
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := Spec{
		Name: "bad",
		Seed: perm.MustParseLabel("123"),
		Gens: perm.GenSet{perm.Gen("g", perm.Identity(4))},
	}
	if _, err := Build(bad); err == nil {
		t.Error("size-mismatched spec should fail")
	}
	if _, err := Build(Spec{Name: "empty", Seed: perm.MustParseLabel("1")}); err == nil {
		t.Error("empty generator set should fail")
	}
}

func TestQuickClosureInvariants(t *testing.T) {
	// Property: for random small generator sets, every node's every
	// neighbor is a valid node, and edge relation v--g-->w implies
	// w--g^-1-->v when the inverse generator is present.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(3)
		p := perm.Random(r, n)
		gens := perm.GenSet{perm.Gen("p", p), perm.Gen("p'", p.Inverse())}
		lbl := make(perm.Label, n)
		for i := range lbl {
			lbl[i] = byte(r.Intn(3))
		}
		g, err := Build(Spec{Name: "rand", Seed: lbl, Gens: gens})
		if err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			w := g.Neighbor(v, 0)
			if g.Neighbor(w, 1) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceBuild is the closure as Build computed it before the label
// arena: one cloned label per node and a map from label to node id.  It
// numbers nodes in the same BFS order, so a Graph must match it exactly.
func referenceBuild(spec Spec) (labels []perm.Label, adj []int32) {
	index := make(map[string]int32)
	add := func(l perm.Label) int32 {
		id := int32(len(labels))
		labels = append(labels, l.Clone())
		index[string(l)] = id
		return id
	}
	add(spec.Seed)
	scratch := make(perm.Label, len(spec.Seed))
	for head := 0; head < len(labels); head++ {
		for _, gen := range spec.Gens {
			gen.P.ApplyInto(scratch, labels[head])
			id, ok := index[string(scratch)]
			if !ok {
				id = add(scratch)
			}
			adj = append(adj, id)
		}
	}
	return labels, adj
}

// CheckAgainstReference builds spec with Build and with referenceBuild
// and fails t unless both give the same node count, label order and
// adjacency, and NodeID inverts Label on every node.  It is exported to
// this directory's external tests, which build super-IPG specs.
func CheckAgainstReference(t testing.TB, spec Spec) {
	t.Helper()
	g, err := Build(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	labels, adj := referenceBuild(spec)
	if g.N() != len(labels) {
		t.Fatalf("%s: %d nodes, reference has %d", spec.Name, g.N(), len(labels))
	}
	for v, want := range labels {
		if !g.Label(v).Equal(want) {
			t.Fatalf("%s: node %d has label %v, reference %v", spec.Name, v, g.Label(v), want)
		}
		if got := g.NodeID(want); got != v {
			t.Fatalf("%s: NodeID(Label(%d)) = %d", spec.Name, v, got)
		}
		for gi := range spec.Gens {
			if got, want := g.Neighbor(v, gi), int(adj[v*len(spec.Gens)+gi]); got != want {
				t.Fatalf("%s: generator %d at node %d leads to %d, reference %d", spec.Name, gi, v, got, want)
			}
		}
	}
}

// starSpec is the star graph S_n: seed 12…n, transpositions (1 i).
func starSpec(n int) Spec {
	seed := make(perm.Label, n)
	gens := perm.GenSet{}
	for i := range seed {
		seed[i] = byte(i + 1)
		if i > 0 {
			gens = append(gens, perm.Gen("t", perm.Transposition(n, 0, i)))
		}
	}
	return Spec{Name: "star", Seed: seed, Gens: gens}
}

// TestBuildMatchesReference compares the arena closure with the map-based
// reference on the Section 2 example and on S_6, whose 720 nodes regrow
// the label table five times.
func TestBuildMatchesReference(t *testing.T) {
	CheckAgainstReference(t, section2Spec())
	CheckAgainstReference(t, starSpec(6))
	if n := MustBuild(starSpec(6)).N(); n != 720 {
		t.Fatalf("S_6 has %d nodes, want 720", n)
	}
}

// TestLabelIsCopy checks that Label returns the label unpacked into a
// fresh slice, so writing to it leaves the graph alone, and that
// LabelInto reuses a buffer with room.
func TestLabelIsCopy(t *testing.T) {
	g := MustBuild(section2Spec())
	l := g.Label(1)
	want := l.Clone()
	for i := range l {
		l[i] = 9
	}
	if !g.Label(1).Equal(want) {
		t.Fatalf("writing to Label(1) changed it from %v to %v", want, g.Label(1))
	}
	buf := make(perm.Label, 0, len(g.Seed))
	if got := g.LabelInto(1, buf); !got.Equal(want) || &got[0] != &buf[:1][0] {
		t.Fatalf("LabelInto(1, buf) = %v, want %v in buf", got, want)
	}
}

// alphabetSpec returns an IPG over the alphabet 0..k-1: a seed of n
// symbols i%k, with the star graph's transpositions (1 i) when star is
// set and otherwise the dihedral group's rotation and reflection.
func alphabetSpec(k, n int, star bool) Spec {
	seed := make(perm.Label, n)
	for i := range seed {
		seed[i] = byte(i % k)
	}
	var gens perm.GenSet
	if star {
		for i := 1; i < n; i++ {
			gens = append(gens, perm.Gen("t", perm.Transposition(n, 0, i)))
		}
	} else {
		rot, ref := make(perm.Perm, n), make(perm.Perm, n)
		for i := range rot {
			rot[i], ref[i] = (i+1)%n, n-1-i
		}
		gens = perm.GenSet{perm.Gen("r", rot), perm.Gen("s", ref)}
	}
	return Spec{Name: fmt.Sprintf("alphabet%d-%d", k, n), Seed: seed, Gens: gens}
}

// TestSymbolWidths builds IPGs over alphabets that take every symbol
// width from 1 to 8 bits (at 3, 5, 6 and 7 bits symbols straddle
// bytes), with records of one word and of several words, and compares
// each with the reference closure.
func TestSymbolWidths(t *testing.T) {
	for _, tc := range []struct {
		k, n  int
		star  bool
		bits  uint
		bytes int // record bytes
	}{
		{2, 5, true, 1, 1},
		{2, 13, true, 1, 2},
		{2, 70, false, 1, 9},
		{3, 9, true, 2, 3},
		{4, 8, true, 2, 2},
		{4, 40, false, 2, 10},
		{5, 7, true, 3, 3},
		{8, 11, false, 3, 5},
		{8, 30, false, 3, 12},
		{9, 12, false, 4, 6},
		{17, 20, false, 5, 13},
		{33, 36, false, 6, 29},
		{65, 68, false, 7, 61},
		{129, 132, false, 8, 132},
		{256, 259, false, 8, 259},
	} {
		spec := alphabetSpec(tc.k, tc.n, tc.star)
		g := MustBuild(spec)
		if g.pk.bits != tc.bits || g.rec != tc.bytes {
			t.Errorf("%s: %d bits a symbol in %d-byte records, want %d in %d", spec.Name, g.pk.bits, g.rec, tc.bits, tc.bytes)
		}
		if len(g.labels) != g.N()*g.rec {
			t.Errorf("%s: arena holds %d bytes for %d nodes of %d", spec.Name, len(g.labels), g.N(), g.rec)
		}
		// The seed starts 0, 1; symbol 1<<bits in front of a 0 is outside
		// the alphabet, but packed unchecked it would read as the seed.
		if tc.bits < 8 {
			l := spec.Seed.Clone()
			l[0], l[1] = 1<<tc.bits, 0
			if got := g.NodeID(l); got != -1 {
				t.Errorf("%s: NodeID(%v) = %d, want -1", spec.Name, l, got)
			}
		}
		CheckAgainstReference(t, spec)
	}
}

// FuzzBuild compares Build with the reference closure on random seeds
// over an alphabet of 1 to 256 symbols (each seed byte reduced mod the
// alphabet size, so that symbols repeat), with at most 5,040
// arrangements, and on random sets of 1 to 8 generators.
func FuzzBuild(f *testing.F) {
	f.Add([]byte("123321"), uint8(3), int64(1), uint8(3))
	f.Add([]byte("1234"), uint8(8), int64(2), uint8(3))
	f.Add([]byte("11"), uint8(1), int64(3), uint8(3))
	f.Add([]byte("a"), uint8(0), int64(4), uint8(3))
	f.Add([]byte{}, uint8(2), int64(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed []byte, ngens uint8, genSeed int64, alphabet uint8) {
		if len(seed) > 256 {
			return
		}
		spec := Spec{Name: "fuzz", Seed: make(perm.Label, len(seed))}
		for i, s := range seed {
			spec.Seed[i] = byte(int(s) % (int(alphabet) + 1))
		}
		if len(seed) > 0 {
			lc, err := perm.NewLabelCodec(spec.Seed)
			if err != nil || lc.Count() > 5040 {
				return
			}
		}
		r := rand.New(rand.NewSource(genSeed))
		for range 1 + int(ngens)%8 {
			spec.Gens = append(spec.Gens, perm.Gen("g", perm.Random(r, len(seed))))
		}
		CheckAgainstReference(t, spec)
	})
}
