// Package superipg implements the super-IPG families of Yeh & Parhami:
// hierarchical swap networks (HSN), ring and complete cyclic networks
// (ring-CN, complete-CN), super-flip networks (SFN), hierarchical cubic
// networks (HCN), directed CNs, and recursively connected complete (RCC)
// networks, together with the intercluster metrics of Section 4 of the
// paper (intercluster degree, intercluster diameter, average intercluster
// distance).
//
// A super-IPG with l super-symbols over a nucleus G with M nodes and label
// length m has seed S1 S1 ... S1 (l copies of G's seed), the nucleus
// generators of G lifted to the leftmost group, and family-specific
// super-generators that permute whole groups.  Its M^l nodes are all
// l-tuples of nucleus labels, and node v is the tuple's mixed-radix
// address (AddressOf, group 1 weighing 1) in every representation, so
// node 0 is the seed.  The cluster of a node is the copy of the nucleus
// it lies in: the nodes sharing every group beyond the first, v / M.
package superipg

//lint:file-ignore ctxflow intercluster scans are one O(N+M) pass per memoized metrics build, bounded by ipg.MaxNodes; the diameter entry points poll ctx between BFS batches

import (
	"context"
	"fmt"
	"sync"

	"ipg/internal/graph"
	"ipg/internal/ipg"
	"ipg/internal/nucleus"
	"ipg/internal/perm"
	"ipg/internal/topo"
)

// Network describes a super-IPG family instance before materialization.
type Network struct {
	Family string
	L      int
	Nuc    *nucleus.Nucleus

	gens perm.GenSet // nucleus generators (lifted) first, then super-generators
	nNuc int
	// superActs[k] is the induced permutation on the l groups of
	// super-generator k (gens[nNuc+k]).
	superActs []perm.Perm
	// bring[i-2] / restore[i-2] are the super-generator words (global
	// generator indices) that bring group i (1-based, 2..l) to the leftmost
	// position and put the arrangement back to identity afterwards.
	bring, restore [][]int

	// The digit rule (digits.go), built on first use by Build or
	// Implicit.
	ruleOnce sync.Once
	rule     *digitRule
	ruleErr  error
}

// newNetwork assembles the shared structure given the family's
// super-generators and routing words.
func newNetwork(family string, l int, nuc *nucleus.Nucleus, supers perm.GenSet, bring, restore [][]int) *Network {
	if l < 2 {
		panic(fmt.Sprintf("superipg.%s: l must be >= 2", family))
	}
	m := nuc.SymbolLen()
	gens := make(perm.GenSet, 0, len(nuc.Gens)+len(supers))
	for _, g := range nuc.Gens {
		gens = append(gens, perm.Gen("N:"+g.Name, perm.LiftToLeftGroup(g.P, l)))
	}
	gens = append(gens, supers...)
	w := &Network{
		Family:  family,
		L:       l,
		Nuc:     nuc,
		gens:    gens,
		nNuc:    len(nuc.Gens),
		bring:   bring,
		restore: restore,
	}
	for _, s := range supers {
		act, ok := perm.GroupAction(s.P, l, m)
		if !ok {
			panic(fmt.Sprintf("superipg.%s: %s is not a super-generator", family, s.Name))
		}
		w.superActs = append(w.superActs, act)
	}
	return w
}

// HSN returns the l-level hierarchical swap network HSN(l, G): transposition
// super-generators T_i = (1,i)_m for i = 2..l.
func HSN(l int, nuc *nucleus.Nucleus) *Network {
	m := nuc.SymbolLen()
	var supers perm.GenSet
	var bring, restore [][]int
	for i := 2; i <= l; i++ {
		supers = append(supers, perm.Gen(fmt.Sprintf("T%d", i), perm.SwapGroups(l, m, 1, i)))
	}
	for i := 2; i <= l; i++ {
		gi := len(nuc.Gens) + (i - 2)
		bring = append(bring, []int{gi})
		restore = append(restore, []int{gi})
	}
	return newNetwork("HSN", l, nuc, supers, bring, restore)
}

// HCN returns the hierarchical cubic network HCN(n, n) of Ghose & Desai in
// its super-IPG skeleton form: HSN(2, Q_n), i.e. 2^n clusters of n-cubes
// with the swap super-generator T_{2,2n}.
func HCN(n int) *Network {
	w := HSN(2, nucleus.Hypercube(n))
	w.Family = "HCN"
	return w
}

// RCC returns the r-level recursively connected complete network based on
// G in its super-IPG skeleton form: RCC(r, G) = HSN(2, G^(2^(r-1))).  The
// paper's Section 3.1 example RCC(2, Q4) thereby has the 32-symbol seed
// 0101...01 and super-generator T_{2,16}, exactly the generator sequence
// the paper lists for it.
func RCC(r int, nuc *nucleus.Nucleus) *Network {
	if r < 2 {
		panic("superipg.RCC: r must be >= 2")
	}
	w := HSN(2, nucleus.Power(nuc, 1<<(r-1)))
	w.Family = "RCC"
	return w
}

// RingCN returns the ring cyclic network ring-CN(l, G): cyclic-shift
// super-generators L_1 and R_1 = L_1^-1.
func RingCN(l int, nuc *nucleus.Nucleus) *Network {
	m := nuc.SymbolLen()
	supers := perm.GenSet{
		perm.Gen("L1", perm.ShiftGroupsLeft(l, m, 1)),
		perm.Gen("R1", perm.ShiftGroupsRight(l, m, 1)),
	}
	li := len(nuc.Gens)
	ri := li + 1
	var bring, restore [][]int
	for i := 2; i <= l; i++ {
		// Rotate whichever way is shorter.
		left := i - 1
		right := l - i + 1
		if left <= right {
			bring = append(bring, repeat(li, left))
			restore = append(restore, repeat(ri, left))
		} else {
			bring = append(bring, repeat(ri, right))
			restore = append(restore, repeat(li, right))
		}
	}
	return newNetwork("ring-CN", l, nuc, supers, bring, restore)
}

// CompleteCN returns the complete cyclic network complete-CN(l, G):
// cyclic-shift super-generators L_1 .. L_{l-1}.
func CompleteCN(l int, nuc *nucleus.Nucleus) *Network {
	m := nuc.SymbolLen()
	var supers perm.GenSet
	for i := 1; i < l; i++ {
		supers = append(supers, perm.Gen(fmt.Sprintf("L%d", i), perm.ShiftGroupsLeft(l, m, i)))
	}
	var bring, restore [][]int
	for i := 2; i <= l; i++ {
		// L_{i-1} brings group i to the front; L_{l-i+1} is its inverse.
		bring = append(bring, []int{len(nuc.Gens) + (i - 2)})
		restore = append(restore, []int{len(nuc.Gens) + (l - i + 1) - 1})
	}
	return newNetwork("complete-CN", l, nuc, supers, bring, restore)
}

// DirectedCN returns the directed cyclic network: the single super-generator
// L_1, giving each node one outgoing intercluster arc.  The resulting IPG is
// a digraph (the generator set is not closed under inverse).
func DirectedCN(l int, nuc *nucleus.Nucleus) *Network {
	m := nuc.SymbolLen()
	supers := perm.GenSet{perm.Gen("L1", perm.ShiftGroupsLeft(l, m, 1))}
	li := len(nuc.Gens)
	var bring, restore [][]int
	for i := 2; i <= l; i++ {
		bring = append(bring, repeat(li, i-1))
		restore = append(restore, repeat(li, l-i+1))
	}
	return newNetwork("directed-CN", l, nuc, supers, bring, restore)
}

// SFN returns the l-level super-flip network SFN(l, G): flip
// super-generators F_i for i = 2..l, where F_i reverses the first i groups.
func SFN(l int, nuc *nucleus.Nucleus) *Network {
	m := nuc.SymbolLen()
	var supers perm.GenSet
	var bring, restore [][]int
	for i := 2; i <= l; i++ {
		supers = append(supers, perm.Gen(fmt.Sprintf("F%d", i), perm.FlipGroups(l, m, i)))
	}
	for i := 2; i <= l; i++ {
		gi := len(nuc.Gens) + (i - 2)
		bring = append(bring, []int{gi})
		restore = append(restore, []int{gi})
	}
	return newNetwork("SFN", l, nuc, supers, bring, restore)
}

func repeat(v, n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = v
	}
	return w
}

// Name returns a descriptive instance name such as "HSN(3,Q4)".
func (w *Network) Name() string { return fmt.Sprintf("%s(%d,%s)", w.Family, w.L, w.Nuc.Name) }

// Seed returns the seed label: l copies of the nucleus seed.
func (w *Network) Seed() perm.Label { return perm.RepeatGroups(w.Nuc.Seed, w.L) }

// Gens returns the full generator set (nucleus generators first).
func (w *Network) Gens() perm.GenSet { return w.gens }

// NumNucGens returns the number of nucleus generators; generator indices
// below this are nucleus generators, the rest super-generators.
func (w *Network) NumNucGens() int { return w.nNuc }

// NumSupers returns the number of super-generators.
func (w *Network) NumSupers() int { return len(w.gens) - w.nNuc }

// IsSuper reports whether generator index gi is a super-generator.
func (w *Network) IsSuper(gi int) bool { return gi >= w.nNuc }

// SuperAction returns the induced permutation on the l groups of the k-th
// super-generator (k indexes supers only, from 0).
func (w *Network) SuperAction(k int) perm.Perm { return w.superActs[k] }

// M returns the nucleus size (nodes per cluster).
func (w *Network) M() int { return w.Nuc.M }

// SymbolLen returns the per-group symbol count m.
func (w *Network) SymbolLen() int { return w.Nuc.SymbolLen() }

// N returns the total node count M^l.
func (w *Network) N() int {
	n := 1
	for i := 0; i < w.L; i++ {
		n *= w.Nuc.M
	}
	return n
}

// Spec returns the ipg.Spec of the super-IPG: ipg.Build's closure of it
// is the reference the digit rule is tested against.
func (w *Network) Spec() ipg.Spec {
	return ipg.Spec{Name: w.Name(), Seed: w.Seed(), Gens: w.gens}
}

// Undirected returns the undirected graph of g, a materialization of w
// (w.Build), marked with one orbit representative per cluster when the
// nucleus is vertex-transitive.  Applying one generator-commuting nucleus
// map (nucleus.Nucleus.VertexTransitive) to every group of a label at
// once commutes with the lifted nucleus generators, which act on the
// first group alone, and with every super-generator, which moves whole
// groups rigidly (perm.GroupAction); so it is an automorphism.  The maps
// act regularly, so every orbit has M nodes and exactly one of them has
// the nucleus seed as its first group.  Those nodes, one per cluster,
// N/M in all, are the representatives graph.Distances sweeps: the seed
// has nucleus address 0, so they are the multiples of M.  Without a
// vertex-transitive nucleus the graph is unmarked.
func (w *Network) Undirected(g *Graph) *graph.Graph {
	u := g.Undirected()
	if !w.Nuc.VertexTransitive() {
		return u
	}
	reps := make([]int32, g.N()/w.Nuc.M)
	for i := range reps {
		//lint:ignore indextrunc i*M < g.N() <= ipg.MaxNodes (1<<22)
		reps[i] = int32(i * w.Nuc.M)
	}
	u.MarkOrbits(reps)
	return u
}

// BringToFront returns the super-generator word (global generator indices)
// that brings group i (2 <= i <= l) to the leftmost position.
func (w *Network) BringToFront(i int) []int {
	if i < 2 || i > w.L {
		panic(fmt.Sprintf("superipg: BringToFront(%d) out of range 2..%d", i, w.L))
	}
	return w.bring[i-2]
}

// RestoreFromFront returns the word undoing BringToFront(i).
func (w *Network) RestoreFromFront(i int) []int {
	if i < 2 || i > w.L {
		panic(fmt.Sprintf("superipg: RestoreFromFront(%d) out of range 2..%d", i, w.L))
	}
	return w.restore[i-2]
}

// AddressOf returns the integer address of a node label: group i (1-based)
// contributes its nucleus address with weight M^(i-1).
func (w *Network) AddressOf(l perm.Label) (int, error) {
	m := w.SymbolLen()
	if len(l) != m*w.L {
		return 0, fmt.Errorf("superipg: label length %d, want %d", len(l), m*w.L)
	}
	addr := 0
	weight := 1
	for i := 0; i < w.L; i++ {
		a, err := w.Nuc.AddressOf(l.Group(m, i))
		if err != nil {
			return 0, err
		}
		addr += a * weight
		weight *= w.Nuc.M
	}
	return addr, nil
}

// LabelOf is the inverse of AddressOf.
func (w *Network) LabelOf(addr int) (perm.Label, error) { return w.LabelInto(addr, nil) }

// LabelInto is LabelOf into dst's storage: the label of address addr
// replaces dst's contents, and dst is reallocated only when it has less
// room than a label.
func (w *Network) LabelInto(addr int, dst perm.Label) (perm.Label, error) {
	if addr < 0 || addr >= w.N() {
		return nil, fmt.Errorf("superipg: address %d out of range [0,%d)", addr, w.N())
	}
	if size := w.SymbolLen() * w.L; cap(dst) < size {
		dst = make(perm.Label, 0, size)
	}
	dst = dst[:0]
	for i := 0; i < w.L; i++ {
		var err error
		if dst, err = w.Nuc.AppendLabel(dst, addr%w.Nuc.M); err != nil {
			return nil, err
		}
		addr /= w.Nuc.M
	}
	return dst, nil
}

// ClusterKey returns the cluster identifier of a label: the suffix beyond
// the first group.  Nodes with equal suffixes form one nucleus copy.
func (w *Network) ClusterKey(l perm.Label) string { return string(l[w.SymbolLen():]) }

// Clusters partitions the materialized graph into nucleus copies: node v
// lies in cluster clusterOf[v] = v / M of nc = N / M.  The intercluster
// measures below take this partition, so one computation can share it.
func (w *Network) Clusters(g *Graph) (clusterOf []int32, nc int) {
	clusterOf = make([]int32, g.N())
	for v := range clusterOf {
		//lint:ignore indextrunc v < g.N() <= ipg.MaxNodes (1<<22)
		clusterOf[v] = int32(v / w.Nuc.M)
	}
	return clusterOf, g.N() / w.Nuc.M
}

// Quotient returns the cluster graph of g under its partition (Clusters):
// one vertex per cluster, an edge between two clusters when some
// super-generator link joins them.  Because every cluster is a connected
// nucleus copy and on-chip moves are free, the intercluster distance
// between two nodes equals the quotient distance between their clusters.
func (w *Network) Quotient(g *Graph, clusterOf []int32, nc int) *graph.Graph {
	return graph.FromStream(nc, func(edge func(u, v int)) {
		for v := 0; v < g.N(); v++ {
			for gi := w.nNuc; gi < len(w.gens); gi++ {
				u := g.Neighbor(v, gi)
				if u != v && clusterOf[u] != clusterOf[v] {
					edge(int(clusterOf[v]), int(clusterOf[u]))
				}
			}
		}
	})
}

// InterclusterDistances returns, from one sweep of the quotient graph, the
// maximum intercluster distance over all node pairs (the quotient's
// diameter) and the average over all ordered node pairs including
// self-pairs (the paper's convention).  Because all clusters have exactly
// M nodes, the average equals the quotient graph's average distance.  The
// error is ctx's, if it ends first.
func (w *Network) InterclusterDistances(ctx context.Context, g *Graph, clusterOf []int32, nc int) (diameter int, avg float64, err error) {
	return graph.Distances(ctx, w.Quotient(g, clusterOf, nc))
}

// DirectedInterclusterDiameter computes the intercluster diameter of a
// digraph family (e.g. directed-CN) by BFS over the directed cluster
// quotient: an arc from cluster A to cluster B exists when some
// super-generator arc leads from a node of A to a node of B.
func (w *Network) DirectedInterclusterDiameter(g *Graph) int {
	clusterOf, nc := w.Clusters(g)
	arcs, err := topo.BuildArcs(nc, func(arc func(u, v int)) {
		for v := 0; v < g.N(); v++ {
			for gi := w.nNuc; gi < len(w.gens); gi++ {
				u := g.Neighbor(v, gi)
				if u != v && clusterOf[u] != clusterOf[v] {
					arc(int(clusterOf[v]), int(clusterOf[u]))
				}
			}
		}
	})
	if err != nil {
		panic("superipg: " + err.Error())
	}
	// The quotient arcs are directed, so the bit-parallel kernel's
	// bottom-up pass (which assumes symmetric rows) does not apply; the
	// scalar sweep stays, on pooled scratch.
	diam := 0
	s := topo.GetScratch(nc)
	defer topo.PutScratch(s)
	for src := 0; src < nc; src++ {
		ecc, _, _ := topo.BFSSourceInto(arcs, src, s.Dist, s.Queue, nil)
		if ecc < 0 {
			return -1 // not strongly connected at the cluster level
		}
		if int(ecc) > diam {
			diam = int(ecc)
		}
	}
	return diam
}

// InterclusterLinks returns the total number of undirected intercluster
// links of a materialized graph: the edges of its undirected graph u
// (Undirected) that join distinct clusters of the partition clusterOf
// (Clusters).  Nucleus generators move only the first group, so every
// such edge is a super-generator link, and u has already merged the
// generator pairs that join the same two nodes.
func (w *Network) InterclusterLinks(u *graph.Graph, clusterOf []int32) int {
	links := 0
	u.Edges(func(a, b int) {
		if clusterOf[a] != clusterOf[b] {
			links++
		}
	})
	return links
}

// InterclusterDegree returns the paper's intercluster degree of g under
// its partition (Clusters): the maximum over clusters of the average
// number of intercluster links per node of the cluster.
func (w *Network) InterclusterDegree(g *Graph, clusterOf []int32, nc int) float64 {
	linkEnds := make([]int, nc)
	for v := 0; v < g.N(); v++ {
		for gi := w.nNuc; gi < len(w.gens); gi++ {
			u := g.Neighbor(v, gi)
			if u == v || clusterOf[u] == clusterOf[v] {
				continue
			}
			linkEnds[clusterOf[v]]++
		}
	}
	// linkEnds counts directed arcs out of each cluster.  For inverse-closed
	// generator sets every undirected link contributes one out-arc at each
	// endpoint cluster, but a node may reach the same neighbor through two
	// different generators; those are distinct physical links, matching the
	// paper's per-generator link accounting.
	max := 0.0
	for _, e := range linkEnds {
		d := float64(e) / float64(w.Nuc.M)
		if d > max {
			max = d
		}
	}
	return max
}
