package ascend

import (
	"fmt"
	"math/bits"
)

// This file implements Dekel-Nassimi-Sahni (DNS) matrix multiplication,
// one of the paper's canonical ascend/descend applications ("many
// applications, such as FFT, bitonic sort, matrix multiplication, and
// convolution, can be formulated using algorithms in this general
// category").  C = A*B on p^3 processors for p x p matrices, p a power of
// two, entirely as single-bit ascend/descend operations:
//
//  1. lift      (k bits, conditional swaps): A[i][j] moves to layer k=j,
//     B[i][j] to layer k=i;
//  2. broadcast (j bits for A, i bits for B, conditional copies): layer k
//     ends up with A[i][k] and B[k][j] everywhere;
//  3. local multiply;
//  4. reduce    (k bits, ascend sums): C[i][j] = sum_k A[i][k]*B[k][j]
//     accumulates on layer k=0.
//
// The address of processor (k,i,j) is k*p^2 + i*p + j.

// ABPair carries the A and B values through the movement phases.
type ABPair struct{ a, b float64 }

// MatMulDNS multiplies the p x p matrices a and b (row-major, p^2 = N^(2/3))
// on the super-IPG underlying r, returning the product row-major and the
// accumulated communication statistics.  The network must have N = p^3
// nodes with binary dimensions.
func MatMulDNS(r *Runner[ABPair], rc *Runner[float64], a, b [][]float64) ([][]float64, Stats, error) {
	logN := r.LogN()
	if logN%3 != 0 {
		return nil, Stats{}, fmt.Errorf("ascend: DNS needs log2(N) divisible by 3, got %d", logN)
	}
	lp := logN / 3
	p := 1 << lp
	if len(a) != p || len(b) != p {
		return nil, Stats{}, fmt.Errorf("ascend: DNS on %d^3 processors needs %dx%d matrices, got %dx%d",
			p, p, p, len(a), len(b))
	}
	n := r.G.N()
	jOf := func(addr int) int { return addr & (p - 1) }
	iOf := func(addr int) int { return addr >> lp & (p - 1) }

	// Initial placement: layer k=0 holds A and B.
	byNode := make([]ABPair, n)
	for v := 0; v < n; v++ {
		if v>>(2*lp) == 0 {
			byNode[v] = ABPair{a: a[iOf(v)][jOf(v)], b: b[iOf(v)][jOf(v)]}
		}
	}
	var total Stats
	acc := func(st Stats) {
		total.SuperSteps += st.SuperSteps
		total.Exchanges += st.Exchanges
		total.CompSteps += st.CompSteps
	}

	// Phase 1: lift along the k bits.  At k-bit stage t, swap A across the
	// pair when bit t of j is 1, and B when bit t of i is 1.
	kBits := make([]int, lp)
	for t := 0; t < lp; t++ {
		kBits[t] = 2*lp + t
	}
	liftPass, err := BitsPass(r.W, kBits)
	if err != nil {
		return nil, total, err
	}
	liftOp := func(bit, addr0, _ int, v0, v1 ABPair) (ABPair, ABPair) {
		t := bit - 2*lp
		if jOf(addr0)>>t&1 == 1 {
			v0.a, v1.a = v1.a, v0.a
		}
		if iOf(addr0)>>t&1 == 1 {
			v0.b, v1.b = v1.b, v0.b
		}
		return v0, v1
	}
	cur, st, err := r.Run(byNode, liftPass, liftOp)
	if err != nil {
		return nil, total, err
	}
	acc(st)

	// Phase 2a: broadcast A along the j bits (source: j bit equals k bit).
	jBits := make([]int, lp)
	for t := 0; t < lp; t++ {
		jBits[t] = t
	}
	bcastA, err := BitsPass(r.W, jBits)
	if err != nil {
		return nil, total, err
	}
	opA := func(bit, addr0, _ int, v0, v1 ABPair) (ABPair, ABPair) {
		t := bit
		if addr0>>(2*lp+t)&1 == 0 {
			v1.a = v0.a
		} else {
			v0.a = v1.a
		}
		return v0, v1
	}
	cur, st, err = r.Run(cur, bcastA, opA)
	if err != nil {
		return nil, total, err
	}
	acc(st)

	// Phase 2b: broadcast B along the i bits (source: i bit equals k bit).
	iBits := make([]int, lp)
	for t := 0; t < lp; t++ {
		iBits[t] = lp + t
	}
	bcastB, err := BitsPass(r.W, iBits)
	if err != nil {
		return nil, total, err
	}
	opB := func(bit, addr0, _ int, v0, v1 ABPair) (ABPair, ABPair) {
		t := bit - lp
		if addr0>>(2*lp+t)&1 == 0 {
			v1.b = v0.b
		} else {
			v0.b = v1.b
		}
		return v0, v1
	}
	cur, st, err = r.Run(cur, bcastB, opB)
	if err != nil {
		return nil, total, err
	}
	acc(st)

	// Phase 3: local multiply.
	prod := make([]float64, n)
	for v := 0; v < n; v++ {
		prod[v] = cur[v].a * cur[v].b
	}

	// Phase 4: reduce along the k bits; sums land on the k=0 layer.
	redPass, err := BitsPass(rc.W, kBits)
	if err != nil {
		return nil, total, err
	}
	redOp := func(_, _, _ int, v0, v1 float64) (float64, float64) {
		return v0 + v1, 0
	}
	summed, st, err := rc.Run(prod, redPass, redOp)
	if err != nil {
		return nil, total, err
	}
	acc(st)
	total.CommSteps = total.SuperSteps + total.Exchanges

	c := make([][]float64, p)
	for i := range c {
		c[i] = make([]float64, p)
	}
	for v := 0; v < n; v++ {
		if v>>(2*lp) == 0 {
			c[iOf(v)][jOf(v)] = summed[v]
		}
	}
	return c, total, nil
}

// MatMulReference is the O(p^3) sequential product for verification.
func MatMulReference(a, b [][]float64) [][]float64 {
	p := len(a)
	c := make([][]float64, p)
	for i := range c {
		c[i] = make([]float64, p)
		for k := 0; k < p; k++ {
			aik := a[i][k]
			for j := 0; j < p; j++ {
				c[i][j] += aik * b[k][j]
			}
		}
	}
	return c
}

// DNSCommSteps returns the bit-operation count of the DNS phases:
// 3*log2(p) movement stages plus the reduce, i.e. 4*log2(p) single-bit
// exchanges (the super-generator transitions on a given family come on
// top, as measured by the returned Stats of MatMulDNS).
func DNSCommSteps(p int) int { return 4 * bits.Len(uint(p-1)) }
