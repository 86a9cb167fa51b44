// Package nucleus provides the nucleus graphs used to build super-IPGs:
// hypercubes, folded hypercubes, complete graphs, rings, generalized
// hypercubes, and star graphs, each expressed in the IPG model (a seed
// label plus permutation generators) as required by the paper's
// construction ("the nucleus determines the nucleus generators and the
// seed of the super-IPG").
//
// Hypercube encoding: Q_k is the IPG on 2k symbols seeded (01)^k whose
// generator i transposes symbol pair (2i-1, 2i); pair i reads 01 for bit 0
// and 10 for bit 1.  This matches the paper's Section 3.1 example, where
// the 16-cube has the 32-symbol seed 01 01 ... 01 and the dimension-11
// generator is the transposition (21,22).
//
// Complete graph encoding: K_M is the IPG on M symbols seeded 012...(M-1)
// with the M-1 cyclic rotations as generators; its M nodes are the M
// rotations of the seed.  Rings and generalized hypercubes follow from the
// same idea restricted to +/-1 rotations and to per-block rotations.
package nucleus

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/perm"
)

// Dim describes one dimension of a dimensionable nucleus: a set of
// generators that realize a complete graph K_radix among the radix possible
// digit values of that dimension.
type Dim struct {
	Radix   int   // number of digit values (2 for binary hypercubes)
	GenIdx  []int // indices into Gens of the generators serving this dimension
	offset  int   // first symbol position of the dimension's block
	symbols int   // number of symbols in the block
}

// Nucleus is a nucleus graph in IPG form.
type Nucleus struct {
	Name string
	Seed perm.Label
	Gens perm.GenSet
	// M is the number of nodes.
	M int
	// Dims is the dimension structure (nil for non-dimensionable nuclei
	// such as star graphs).  Ascend/descend algorithms and HPN emulation
	// require Dims.
	Dims []Dim

	// Optional explicit enumeration for nuclei without a mixed-radix
	// dimension structure (e.g. a super-IPG reused as a nucleus): maps
	// between addresses 0..M-1 and node labels.
	enumLabels []perm.Label
	enumIndex  map[string]int

	// Optional closed-form rank/unrank for nuclei without dimension
	// structure whose node set has an arithmetic description (ring
	// rotations, star-graph Lehmer codes).  Consulted by AddressOf and
	// AppendLabel before the enumeration fallback, so these nuclei stay
	// addressable without materializing their label set.  unrankFn
	// appends the label to dst.
	rankFn   func(perm.Label) (int, error)
	unrankFn func(dst perm.Label, addr int) (perm.Label, error)

	// vt records that the constructor proved VertexTransitive.
	vt bool
}

// VertexTransitive reports whether the construction proves a group of
// maps on the nucleus labels that commute with every generator
// (sigma(x*g) = sigma(x)*g) and act regularly on the nodes: exactly one
// map carries any node to any other.  The Cayley constructors prove it:
// the hypercube, folded hypercube, complete graph, ring and generalized
// hypercube generate abelian groups that act on their labels regularly,
// so the group itself qualifies, and the star graph's labels are every
// arrangement of distinct symbols, so renaming symbols qualifies.  A
// Product has it when both factors do; a super-IPG reused as a nucleus
// (AsNucleus) does not.  Such a map applied to every group of a
// super-IPG label at once is an automorphism of the super-IPG, which is
// what lets its distance sweep visit one node per cluster (see
// superipg.Network.Undirected).
func (nu *Nucleus) VertexTransitive() bool { return nu.vt }

// Addressable reports whether AddressOf/LabelOf form a bijection between
// [0, M) and the nucleus node set — true for dimensionable nuclei, for
// nuclei with a closed-form rank, and for explicitly enumerated ones.
// Every constructor gives an addressable nucleus, and super-IPGs require
// one: their nodes are numbered by nucleus addresses.
func (nu *Nucleus) Addressable() bool {
	return len(nu.Dims) > 0 || nu.rankFn != nil || nu.enumLabels != nil
}

// SetEnumeration installs an explicit address<->label bijection, enabling
// AddressOf/LabelOf on nuclei without dimension structure.  The slice must
// contain M distinct labels.
func (nu *Nucleus) SetEnumeration(labels []perm.Label) error {
	if len(labels) != nu.M {
		return fmt.Errorf("nucleus %s: enumeration has %d labels, want %d", nu.Name, len(labels), nu.M)
	}
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		if len(l) != len(nu.Seed) {
			return fmt.Errorf("nucleus %s: enumeration label %d has wrong length", nu.Name, i)
		}
		key := string(l)
		if _, dup := idx[key]; dup {
			return fmt.Errorf("nucleus %s: duplicate enumeration label %v", nu.Name, l)
		}
		idx[key] = i
	}
	nu.enumLabels = labels
	nu.enumIndex = idx
	return nil
}

// Spec returns the ipg.Spec materializing the nucleus on its own.
func (nu *Nucleus) Spec() ipg.Spec {
	return ipg.Spec{Name: nu.Name, Seed: nu.Seed, Gens: nu.Gens}
}

// Build materializes the nucleus graph.
func (nu *Nucleus) Build() (*ipg.Graph, error) { return ipg.Build(nu.Spec()) }

// SymbolLen returns the label length m of the nucleus.
func (nu *Nucleus) SymbolLen() int { return len(nu.Seed) }

// NumGens returns the number of nucleus generators.
func (nu *Nucleus) NumGens() int { return len(nu.Gens) }

// NumDims returns the number of dimensions (0 if not dimensionable).
func (nu *Nucleus) NumDims() int { return len(nu.Dims) }

// Radices returns the per-dimension radix vector.
func (nu *Nucleus) Radices() []int {
	r := make([]int, len(nu.Dims))
	for i, d := range nu.Dims {
		r[i] = d.Radix
	}
	return r
}

// AddressOf decodes the mixed-radix address encoded by a nucleus label:
// digit d is the value of dimension d (0 for non-dimensionable nuclei).
// The address is sum over dims of digit_d * prod_{d'<d} radix_{d'}.
func (nu *Nucleus) AddressOf(l perm.Label) (int, error) {
	if len(l) != len(nu.Seed) {
		return 0, fmt.Errorf("nucleus %s: label length %d, want %d", nu.Name, len(l), len(nu.Seed))
	}
	if len(nu.Dims) == 0 && nu.rankFn != nil {
		return nu.rankFn(l)
	}
	if len(nu.Dims) == 0 && nu.enumIndex != nil {
		a, ok := nu.enumIndex[string(l)]
		if !ok {
			return 0, fmt.Errorf("nucleus %s: label %v not in enumeration", nu.Name, l)
		}
		return a, nil
	}
	addr := 0
	weight := 1
	for di := range nu.Dims {
		d := &nu.Dims[di]
		digit, err := nu.digitOf(l, d)
		if err != nil {
			return 0, err
		}
		addr += digit * weight
		weight *= d.Radix
	}
	return addr, nil
}

// digitOf extracts the digit of dimension d: the rotation offset of the
// block (equivalently, the value of its first symbol relative to the seed
// block whose first symbol is the block's minimum).
func (nu *Nucleus) digitOf(l perm.Label, d *Dim) (int, error) {
	base := nu.Seed[d.offset] // smallest symbol of the block in the seed
	v := int(l[d.offset]) - int(base)
	if v < 0 || v >= d.Radix {
		return 0, fmt.Errorf("nucleus %s: symbol %d at offset %d outside block range", nu.Name, l[d.offset], d.offset)
	}
	return v, nil
}

// LabelOf encodes a mixed-radix address as a nucleus label (inverse of
// AddressOf).
func (nu *Nucleus) LabelOf(addr int) (perm.Label, error) {
	l, err := nu.AppendLabel(make(perm.Label, 0, len(nu.Seed)), addr)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// AppendLabel appends the label of address addr to dst and returns the
// extended slice: LabelOf without the allocation when dst has room, which
// the implicit super-IPG rows rely on (one call per group per row).
func (nu *Nucleus) AppendLabel(dst perm.Label, addr int) (perm.Label, error) {
	if addr < 0 || addr >= nu.M {
		return dst, fmt.Errorf("nucleus %s: address %d out of range [0,%d)", nu.Name, addr, nu.M)
	}
	if len(nu.Dims) == 0 && nu.unrankFn != nil {
		return nu.unrankFn(dst, addr)
	}
	if len(nu.Dims) == 0 && nu.enumLabels != nil {
		return append(dst, nu.enumLabels[addr]...), nil
	}
	base := len(dst)
	dst = append(dst, nu.Seed...)
	l := dst[base:]
	for di := range nu.Dims {
		d := &nu.Dims[di]
		digit := addr % d.Radix
		addr /= d.Radix
		// Rotate the block left by digit positions.
		for k := 0; k < d.symbols; k++ {
			l[d.offset+k] = nu.Seed[d.offset+(k+digit)%d.symbols]
		}
	}
	return dst, nil
}

// DimGenerator returns the generator index that, applied at a node with the
// given digit in dimension dim, produces the node with digit newDigit in
// that dimension (all other digits unchanged).  For binary dimensions this
// is the single transposition; for radix-m dimensions it is the rotation by
// (newDigit-digit) mod m.
func (nu *Nucleus) DimGenerator(dim, digit, newDigit int) (int, error) {
	if dim < 0 || dim >= len(nu.Dims) {
		return 0, fmt.Errorf("nucleus %s: dimension %d out of range", nu.Name, dim)
	}
	d := &nu.Dims[dim]
	if digit == newDigit {
		return 0, fmt.Errorf("nucleus %s: digit unchanged", nu.Name)
	}
	delta := ((newDigit-digit)%d.Radix + d.Radix) % d.Radix
	if d.Radix == 2 {
		return d.GenIdx[0], nil
	}
	// Rotation generators are stored in delta order 1..radix-1.
	return d.GenIdx[delta-1], nil
}

// Hypercube returns the binary k-cube Q_k as a nucleus: 2k symbols, k
// transposition generators, 2^k nodes.
func Hypercube(k int) *Nucleus {
	if k < 1 {
		panic("nucleus.Hypercube: k must be >= 1")
	}
	seed := make(perm.Label, 2*k)
	gens := make(perm.GenSet, 0, k)
	dims := make([]Dim, k)
	for i := 0; i < k; i++ {
		seed[2*i] = 0
		seed[2*i+1] = 1
		gens = append(gens, perm.Gen(fmt.Sprintf("d%d", i+1), perm.Transposition(2*k, 2*i, 2*i+1)))
		dims[i] = Dim{Radix: 2, GenIdx: []int{i}, offset: 2 * i, symbols: 2}
	}
	return &Nucleus{
		Name: fmt.Sprintf("Q%d", k),
		Seed: seed,
		Gens: gens,
		M:    1 << k,
		Dims: dims,
		vt:   true,
	}
}

// FoldedHypercube returns FQ_k: the k-cube plus the complement generator
// that flips every bit at once (degree k+1, diameter ceil(k/2)).
func FoldedHypercube(k int) *Nucleus {
	nu := Hypercube(k)
	nu.Name = fmt.Sprintf("FQ%d", k)
	comp := perm.Identity(2 * k)
	for i := 0; i < k; i++ {
		comp[2*i], comp[2*i+1] = comp[2*i+1], comp[2*i]
	}
	nu.Gens = append(nu.Gens, perm.Gen("comp", comp))
	// The complement edge does not extend the dimension structure; it is an
	// extra link, so Dims stays as the k binary dimensions.
	return nu
}

// Complete returns the complete graph K_m as a nucleus: m symbols seeded
// 0..m-1 with the m-1 left-rotations as generators; the m nodes are the
// rotations of the seed and every pair of nodes is adjacent.
func Complete(m int) *Nucleus {
	if m < 2 || m > 250 {
		panic("nucleus.Complete: m out of range [2,250]")
	}
	seed := make(perm.Label, m)
	for i := range seed {
		seed[i] = byte(i)
	}
	gens := make(perm.GenSet, 0, m-1)
	genIdx := make([]int, 0, m-1)
	for r := 1; r < m; r++ {
		gens = append(gens, perm.Gen(fmt.Sprintf("r%d", r), perm.RotateLeft(m, r)))
		genIdx = append(genIdx, r-1)
	}
	return &Nucleus{
		Name: fmt.Sprintf("K%d", m),
		Seed: seed,
		Gens: gens,
		M:    m,
		Dims: []Dim{{Radix: m, GenIdx: genIdx, offset: 0, symbols: m}},
		vt:   true,
	}
}

// Ring returns the cycle C_m as a nucleus: rotations by +1 and -1 only.
// Rings are not dimensionable in the complete-graph sense, so Dims is nil.
func Ring(m int) *Nucleus {
	if m < 3 || m > 250 {
		panic("nucleus.Ring: m out of range [3,250]")
	}
	seed := make(perm.Label, m)
	for i := range seed {
		seed[i] = byte(i)
	}
	gens := perm.GenSet{
		perm.Gen("r+1", perm.RotateLeft(m, 1)),
		perm.Gen("r-1", perm.RotateRight(m, 1)),
	}
	nu := &Nucleus{Name: fmt.Sprintf("C%d", m), Seed: seed, Gens: gens, M: m, vt: true}
	// The m nodes are the m left-rotations of 0..m-1, so a label's address
	// is its rotation offset — the symbol at position 0.  The closed-form
	// rank keeps rings addressable without enumeration, which the implicit
	// super-IPG adjacency requires of its nucleus.
	nu.rankFn = func(l perm.Label) (int, error) {
		r := int(l[0])
		if r >= m {
			return 0, fmt.Errorf("nucleus %s: symbol %d outside [0,%d)", nu.Name, r, m)
		}
		for k, s := range l {
			if int(s) != (k+r)%m {
				return 0, fmt.Errorf("nucleus %s: label %v is not a rotation of the seed", nu.Name, l)
			}
		}
		return r, nil
	}
	nu.unrankFn = func(dst perm.Label, addr int) (perm.Label, error) {
		for k := 0; k < m; k++ {
			dst = append(dst, byte((k+addr)%m))
		}
		return dst, nil
	}
	return nu
}

// GeneralizedHypercube returns the mixed-radix generalized hypercube
// GHC(m_1, ..., m_n) of Bhuyan & Agrawal: the Cartesian product of complete
// graphs K_{m_1} x ... x K_{m_n}.  Block i of the label holds m_i symbols
// and carries the m_i - 1 rotation generators of dimension i.
func GeneralizedHypercube(radices ...int) *Nucleus {
	if len(radices) == 0 {
		panic("nucleus.GeneralizedHypercube: need at least one radix")
	}
	total := 0
	M := 1
	for _, m := range radices {
		if m < 2 {
			panic("nucleus.GeneralizedHypercube: radix must be >= 2")
		}
		total += m
		M *= m
	}
	seed := make(perm.Label, total)
	var gens perm.GenSet
	dims := make([]Dim, len(radices))
	offset := 0
	for di, m := range radices {
		for k := 0; k < m; k++ {
			seed[offset+k] = byte(k)
		}
		genIdx := make([]int, 0, m-1)
		for r := 1; r < m; r++ {
			p := perm.Identity(total)
			for k := 0; k < m; k++ {
				p[offset+k] = offset + (k+r)%m
			}
			genIdx = append(genIdx, len(gens))
			gens = append(gens, perm.Gen(fmt.Sprintf("d%dr%d", di+1, r), p))
		}
		dims[di] = Dim{Radix: m, GenIdx: genIdx, offset: offset, symbols: m}
		offset += m
	}
	name := "GHC("
	for i, m := range radices {
		if i > 0 {
			name += ","
		}
		name += fmt.Sprintf("%d", m)
	}
	name += ")"
	return &Nucleus{Name: name, Seed: seed, Gens: gens, M: M, Dims: dims, vt: true}
}

// Star returns the star graph S_n (Akers & Krishnamurthy): seed 12...n with
// transposition generators (1,i); n! nodes, degree n-1.  Star graphs are
// Cayley graphs and serve as a non-dimensionable nucleus example.
func Star(n int) *Nucleus {
	if n < 2 || n > 8 {
		panic("nucleus.Star: n out of range [2,8]")
	}
	seed := make(perm.Label, n)
	for i := range seed {
		seed[i] = byte(i + 1)
	}
	gens := make(perm.GenSet, 0, n-1)
	M := 1
	for i := 2; i <= n; i++ {
		gens = append(gens, perm.Gen(fmt.Sprintf("t%d", i), perm.Transposition(n, 0, i-1)))
		M *= i
	}
	nu := &Nucleus{Name: fmt.Sprintf("S%d", n), Seed: seed, Gens: gens, M: M, vt: true}
	// Star-graph nodes are all n! arrangements of the distinct seed
	// symbols, so the Lehmer-code label codec ranks them in lexicographic
	// order: address 0 is the seed 12...n, address n!-1 its reversal.
	codec, err := perm.NewLabelCodec(seed)
	if err != nil {
		panic("nucleus.Star: " + err.Error())
	}
	nu.rankFn = func(l perm.Label) (int, error) {
		r, err := codec.Rank(l)
		if err != nil {
			return 0, fmt.Errorf("nucleus %s: %v", nu.Name, err)
		}
		return int(r), nil
	}
	nu.unrankFn = func(dst perm.Label, addr int) (perm.Label, error) {
		// UnrankInto writes into the spare capacity after dst, so the
		// append below is a copy in place when dst has room.
		tail, err := codec.UnrankInto(int64(addr), dst[len(dst):])
		if err != nil {
			return dst, err
		}
		return append(dst, tail...), nil
	}
	return nu
}
