package nucleus

import (
	"fmt"

	"ipg/internal/perm"
)

// Product returns the nucleus realizing the Cartesian product a x b: labels
// are the concatenation of an a-label and a b-label, generators are the
// generators of a and b lifted to the combined label, and the dimension
// structure is the concatenation of both (a's dimensions first, so a's
// digits are least significant in the product address).
//
// Products of nuclei are what make recursively constructed super-IPGs
// (e.g. RCC networks, whose basic modules at level r are products of the
// level-(r-1) modules) expressible in the same framework.
func Product(a, b *Nucleus) *Nucleus {
	la, lb := len(a.Seed), len(b.Seed)
	n := la + lb
	seed := make(perm.Label, 0, n)
	seed = append(seed, a.Seed...)
	seed = append(seed, b.Seed...)

	gens := make(perm.GenSet, 0, len(a.Gens)+len(b.Gens))
	for _, g := range a.Gens {
		p := perm.Identity(n)
		copy(p[:la], g.P)
		gens = append(gens, perm.Gen("a."+g.Name, p))
	}
	for _, g := range b.Gens {
		p := perm.Identity(n)
		for i, v := range g.P {
			p[la+i] = la + v
		}
		gens = append(gens, perm.Gen("b."+g.Name, p))
	}

	dims := make([]Dim, 0, len(a.Dims)+len(b.Dims))
	for _, d := range a.Dims {
		dims = append(dims, Dim{Radix: d.Radix, GenIdx: append([]int(nil), d.GenIdx...), offset: d.offset, symbols: d.symbols})
	}
	for _, d := range b.Dims {
		shifted := make([]int, len(d.GenIdx))
		for i, gi := range d.GenIdx {
			shifted[i] = gi + len(a.Gens)
		}
		dims = append(dims, Dim{Radix: d.Radix, GenIdx: shifted, offset: la + d.offset, symbols: d.symbols})
	}

	return &Nucleus{
		Name: fmt.Sprintf("%sx%s", a.Name, b.Name),
		Seed: seed,
		Gens: gens,
		M:    a.M * b.M,
		Dims: dims,
		// The factors' label maps act on disjoint label halves, so the
		// product of two transitive generator-commuting groups is one.
		vt: a.vt && b.vt,
	}
}

// Power returns the p-th Cartesian power of nu (p >= 1).
func Power(nu *Nucleus, p int) *Nucleus {
	if p < 1 {
		panic("nucleus.Power: p must be >= 1")
	}
	out := nu
	for i := 1; i < p; i++ {
		out = Product(out, nu)
	}
	if p > 1 {
		out.Name = fmt.Sprintf("%s^%d", nu.Name, p)
	}
	return out
}
