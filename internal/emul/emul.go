// Package emul implements the single-dimension-communication (SDC)
// emulation of homogeneous product networks (HPNs) on super-IPGs
// (Theorem 3.1 of the paper) and the associated embedding measurements
// (dilation and congestion, Corollaries 3.2-3.4).
//
// A super-IPG over nucleus G with n generators emulates HPN(l, G) by
// mapping HPN dimension j (1-based) to the generator word
//
//	S_{j1}  N_{j0}  S_{j1}^{-1}
//
// where j0 = 1 + (j-1 mod n), j1 = 1 + floor((j-1)/n), S_{j1} is the
// super-generator word bringing group j1 to the leftmost position and
// N_{j0} is the j0-th nucleus generator.  For dimensions of the first
// group (j1 = 1) the word is just N_{j0}.
package emul

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/perm"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// DimensionWord returns the generator word (global generator indices into
// w.Gens()) that emulates transmissions along dimension j of HPN(l, G),
// j in 1..l*n.
func DimensionWord(w *superipg.Network, j int) ([]int, error) {
	n := w.NumNucGens()
	if j < 1 || j > w.L*n {
		return nil, fmt.Errorf("emul: dimension %d out of range 1..%d", j, w.L*n)
	}
	j0 := 1 + (j-1)%n
	j1 := 1 + (j-1)/n
	if j1 == 1 {
		return []int{j0 - 1}, nil
	}
	var word []int
	word = append(word, w.BringToFront(j1)...)
	word = append(word, j0-1)
	word = append(word, w.RestoreFromFront(j1)...)
	return word, nil
}

// DimensionWordNames renders the word of DimensionWord with the paper's
// generator names, e.g. ["T3", "N:d3", "T3"].
func DimensionWordNames(w *superipg.Network, j int) ([]string, error) {
	word, err := DimensionWord(w, j)
	if err != nil {
		return nil, err
	}
	gens := w.Gens()
	names := make([]string, len(word))
	for i, gi := range word {
		names[i] = gens[gi].Name
	}
	return names, nil
}

// HPNNeighbor returns the label of the dimension-j neighbor of x in the
// emulated HPN(l, G): group j1's content with nucleus generator j0 applied,
// all other groups unchanged.
func HPNNeighbor(w *superipg.Network, x perm.Label, j int) (perm.Label, error) {
	n := w.NumNucGens()
	if j < 1 || j > w.L*n {
		return nil, fmt.Errorf("emul: dimension %d out of range 1..%d", j, w.L*n)
	}
	j0 := 1 + (j-1)%n
	j1 := 1 + (j-1)/n
	m := w.SymbolLen()
	out := x.Clone()
	group := out.Group(m, j1-1)
	ng := w.Nuc.Gens[j0-1].P.Apply(perm.Label(group))
	copy(group, ng)
	return out, nil
}

// VerifyDimension checks that applying DimensionWord(j) to label x lands
// exactly on the HPN dimension-j neighbor of x.
func VerifyDimension(w *superipg.Network, x perm.Label, j int) error {
	word, err := DimensionWord(w, j)
	if err != nil {
		return err
	}
	want, err := HPNNeighbor(w, x, j)
	if err != nil {
		return err
	}
	got := applyWord(w, x, j, word)
	if !got.Equal(want) {
		return fmt.Errorf("emul: %s dimension %d: word lands on %v, want %v",
			w.Name(), j, got, want)
	}
	return nil
}

func applyWord(w *superipg.Network, x perm.Label, j int, word []int) perm.Label {
	gens := w.Gens()
	cur := x.Clone()
	next := make(perm.Label, len(x))
	for _, gi := range word {
		gens[gi].P.ApplyInto(next, cur)
		cur, next = next, cur
	}
	return cur
}

// SlowdownSDC returns the SDC-model emulation slowdown factor of
// Theorem 3.1: the maximum word length over all HPN dimensions (t + 1).
// For HSN, complete-CN, and SFN this is 3 (Corollary 3.2).
func SlowdownSDC(w *superipg.Network) int {
	max := 0
	for j := 1; j <= w.L*w.NumNucGens(); j++ {
		word, err := DimensionWord(w, j)
		if err != nil {
			panic(err) // unreachable: j is in range
		}
		if len(word) > max {
			max = len(word)
		}
	}
	return max
}

// DilationResult reports the measured embedding dilation of HPN(l, G) into
// the super-IPG: the maximum, over HPN edges, of the distance in the
// super-IPG between the edge's endpoints (the embedding is the identity on
// labels).
type DilationResult struct {
	Dilation    int
	PerDim      []int // max dilation per HPN dimension (index j-1)
	WordBound   int   // the word-length upper bound (slowdown factor)
	SampleNodes int
}

// MeasureDilation computes the dilation by BFS from each of the sample
// nodes (all nodes if sample <= 0 or >= N) in the materialized graph.
func MeasureDilation(w *superipg.Network, g *ipg.Graph, sample int) (DilationResult, error) {
	u := g.Undirected()
	nd := w.L * w.NumNucGens()
	res := DilationResult{
		PerDim:    make([]int, nd),
		WordBound: SlowdownSDC(w),
	}
	n := g.N()
	step := 1
	if sample > 0 && sample < n {
		step = n / sample
	}
	var lbl perm.Label
	for v := 0; v < n; v += step {
		dist := u.BFS(v)
		res.SampleNodes++
		lbl = g.LabelInto(v, lbl)
		for j := 1; j <= nd; j++ {
			nb, err := HPNNeighbor(w, lbl, j)
			if err != nil {
				return res, err
			}
			id := g.NodeID(nb)
			if id < 0 {
				return res, fmt.Errorf("emul: HPN neighbor %v not a node of %s", nb, w.Name())
			}
			if id == v {
				continue // HPN self-loop cannot occur; defensive
			}
			d := int(dist[id])
			if d > res.PerDim[j-1] {
				res.PerDim[j-1] = d
			}
			if d > res.Dilation {
				res.Dilation = d
			}
		}
	}
	return res, nil
}

// TotalCongestion returns the maximum, over undirected super-IPG links, of
// the number of embedded HPN edges (across ALL dimensions) whose emulation
// paths traverse the link — the congestion quantity of Section 4.1, which
// for an HSN(l,Q_n) is max(2n, l): Theta(sqrt(log N)) when l = Theta(n),
// "the smallest possible for a degree-Theta(sqrt(log N)) network to embed
// a degree-log2(N) network".
// The graph is consumed through the port-labelled topo.Ported view (port
// gi = generator gi; a port returning the node itself is a self-loop), so
// any Ported implementation of the family can be measured.
func TotalCongestion(w *superipg.Network, g topo.Ported) (int, error) {
	use := make(map[[2]int32]int)
	for j := 1; j <= w.L*w.NumNucGens(); j++ {
		word, err := DimensionWord(w, j)
		if err != nil {
			return 0, err
		}
		for v := 0; v < g.N(); v++ {
			//lint:ignore indextrunc node ids are < g.N(), bounded by the family builders
			cur := int32(v)
			for _, gi := range word {
				next := g.Port(int(cur), gi)
				if next == cur {
					continue
				}
				a, b := cur, next
				if a > b {
					a, b = b, a
				}
				use[[2]int32{a, b}]++
				cur = next
			}
		}
	}
	max := 0
	for _, c := range use {
		if c > max {
			max = c
		}
	}
	// Each undirected HPN edge contributes a traversal from both endpoints.
	return (max + 1) / 2, nil
}

// CongestionPerDimension returns, for HPN dimension j, the maximum number
// of embedded HPN dimension-j edges whose emulation paths traverse any
// single undirected link of the super-IPG (Corollary 3.3's discussion:
// this is 2 for HSN, complete-CN, SFN).
func CongestionPerDimension(w *superipg.Network, g topo.Ported, j int) (int, error) {
	word, err := DimensionWord(w, j)
	if err != nil {
		return 0, err
	}
	use := make(map[[2]int32]int)
	for v := 0; v < g.N(); v++ {
		//lint:ignore indextrunc node ids are < g.N(), bounded by the family builders
		cur := int32(v)
		for _, gi := range word {
			next := g.Port(int(cur), gi)
			if next == cur {
				// The generator fixes this label (repeated symbols): no
				// physical transmission happens on this step.
				continue
			}
			a, b := cur, next
			if a > b {
				a, b = b, a
			}
			use[[2]int32{a, b}]++
			cur = next
		}
	}
	// Each undirected HPN edge was traversed from both endpoints; a link
	// used once in each direction by the same HPN edge carries that edge
	// once per direction.  The paper counts congestion as embedded paths
	// per link; we count directed traversals and halve, conservatively
	// rounding up.
	max := 0
	for _, c := range use {
		if c > max {
			max = c
		}
	}
	return (max + 1) / 2, nil
}
