package perm

import (
	"fmt"
	"strings"
)

// Label is an IPG node label: a string of symbols, possibly with repeats.
// Symbols are small integers; for super-IPGs the label consists of l groups
// ("super-symbols") of m symbols each.
type Label []byte

// ParseLabel builds a Label from a human-readable string such as
// "123 321" or "01 01 01".  Spaces are ignored; digits '0'-'9' map to
// symbols 0-9 and letters 'a'-'z' to symbols 10-35.
func ParseLabel(s string) (Label, error) {
	var l Label
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t':
		case r >= '0' && r <= '9':
			l = append(l, byte(r-'0'))
		case r >= 'a' && r <= 'z':
			l = append(l, byte(r-'a'+10))
		default:
			return nil, fmt.Errorf("perm: invalid label character %q in %q", r, s)
		}
	}
	return l, nil
}

// MustParseLabel is ParseLabel that panics on error, for literals in tests
// and examples.
func MustParseLabel(s string) Label {
	l, err := ParseLabel(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Apply returns the label obtained by applying p to x: y[i] = x[p[i]].
func (p Perm) Apply(x Label) Label {
	if len(p) != len(x) {
		panic(fmt.Sprintf("perm.Apply: perm size %d != label size %d", len(p), len(x)))
	}
	y := make(Label, len(x))
	for i, v := range p {
		y[i] = x[v]
	}
	return y
}

// ApplyInto applies p to x writing the result into dst (which must have the
// same length and not alias x).  It avoids allocation in hot loops.
func (p Perm) ApplyInto(dst, x Label) {
	dst = dst[:len(p)] // one bounds check here, none per write
	for i, v := range p {
		dst[i] = x[v]
	}
}

// Fixes reports whether applying p to x yields x itself.  Because labels may
// contain repeated symbols, a non-identity permutation can fix a label; such
// generator actions are self-loops in the IPG and produce no edge.
func (p Perm) Fixes(x Label) bool {
	for i, v := range p {
		if x[i] != x[v] {
			return false
		}
	}
	return true
}

// Equal reports whether two labels are identical.
func (x Label) Equal(y Label) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of x.
func (x Label) Clone() Label {
	y := make(Label, len(x))
	copy(y, x)
	return y
}

// Key returns x as a string usable as a map key.
func (x Label) Key() string { return string(x) }

// Group returns the i-th (0-based) group of m symbols of x as a sub-slice.
func (x Label) Group(m, i int) Label { return x[i*m : (i+1)*m] }

// String renders the label with groups of size 0 (no grouping): symbols
// 0-9 as digits, 10-35 as letters.
func (x Label) String() string { return x.GroupedString(0) }

// GroupedString renders the label with a space every m symbols (m <= 0
// disables grouping), matching the paper's "123 321" style.
func (x Label) GroupedString(m int) string {
	var b strings.Builder
	for i, s := range x {
		if m > 0 && i > 0 && i%m == 0 {
			b.WriteByte(' ')
		}
		if s < 10 {
			b.WriteByte('0' + s)
		} else if s < 36 {
			b.WriteByte('a' + s - 10)
		} else {
			fmt.Fprintf(&b, "<%d>", s)
		}
	}
	return b.String()
}

// RepeatGroups returns the label consisting of l copies of group g, the
// canonical seed of a super-IPG.
func RepeatGroups(g Label, l int) Label {
	out := make(Label, 0, len(g)*l)
	for i := 0; i < l; i++ {
		out = append(out, g...)
	}
	return out
}
