package nucleus

import "fmt"

// DimBits returns log2(radix) of dimension d, or an error if the radix is
// not a power of two (ascend/descend algorithms require power-of-two
// radices, as in Theorem 3.5's assumption that |G| is a power of 2).
func (nu *Nucleus) DimBits(d int) (int, error) {
	radix := nu.Dims[d].Radix
	bits := 0
	for 1<<bits < radix {
		bits++
	}
	if 1<<bits != radix {
		return 0, fmt.Errorf("nucleus %s: dimension %d radix %d not a power of 2", nu.Name, d, radix)
	}
	return bits, nil
}

// TotalBits returns log2(M) if M is a power of two, or an error.
func (nu *Nucleus) TotalBits() (int, error) {
	total := 0
	for d := range nu.Dims {
		b, err := nu.DimBits(d)
		if err != nil {
			return 0, err
		}
		total += b
	}
	if 1<<total != nu.M {
		return 0, fmt.Errorf("nucleus %s: node count %d not a power of 2", nu.Name, nu.M)
	}
	return total, nil
}
