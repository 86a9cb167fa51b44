package ascend

import (
	"math"
	"math/cmplx"
	"sort"

	"ipg/internal/superipg"
)

// This file implements the concrete ascend/descend algorithms the paper
// cites as the class's canonical members: FFT, bitonic sorting, all-reduce,
// and one-to-all broadcast.

// FFTOp returns the decimation-in-frequency butterfly for an N-point FFT.
// Running it as a descend pass (bits high to low) computes the DFT with the
// output in bit-reversed address order.
func FFTOp(n int, inverse bool) BitOp[complex128] {
	sign := -2 * math.Pi
	if inverse {
		sign = 2 * math.Pi
	}
	return func(bit, addr0, _ int, a, b complex128) (complex128, complex128) {
		span := 1 << uint(bit)
		exp := (addr0 & (span - 1)) * (n >> uint(bit+1))
		w := cmplx.Exp(complex(0, sign*float64(exp)/float64(n)))
		return a + b, (a - b) * w
	}
}

// BitReverse returns i with its low logN bits reversed.
func BitReverse(i, logN int) int {
	r := 0
	for b := 0; b < logN; b++ {
		r = r<<1 | (i>>b)&1
	}
	return r
}

// DFT computes the discrete Fourier transform directly in O(N^2), the
// reference for FFT correctness checks.
func DFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -2 * math.Pi
	if inverse {
		sign = 2 * math.Pi
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += x[j] * cmplx.Exp(complex(0, sign*float64(j*k)/float64(n)))
		}
		out[k] = sum
	}
	return out
}

// FFT runs the descend-pass FFT on the super-IPG and returns the spectrum
// in natural order (bit-reversal undone), along with the communication
// statistics of the run.  data is indexed by node address.
func FFT(r *Runner[complex128], byAddr []complex128, inverse bool) ([]complex128, Stats, error) {
	n := len(byAddr)
	logN := r.LogN()
	out, st, err := r.Run(byAddr, DescendPass(r.W), FFTOp(n, inverse))
	if err != nil {
		return nil, st, err
	}
	// Back to address order, undoing the bit-reversal of DIF.
	res := make([]complex128, n)
	for v := range res {
		res[BitReverse(v, logN)] = out[v]
	}
	if inverse {
		for i := range res {
			res[i] /= complex(float64(n), 0)
		}
	}
	return res, st, nil
}

// BitonicSort sorts float64 keys (indexed by node address) ascending on the
// super-IPG using the bitonic sorting network: log2(N) merge stages, stage
// k consisting of compare-exchange descends on bits k-1..0 with direction
// chosen by address bit k.  Returns the sorted keys by address and the
// accumulated communication statistics.
func BitonicSort(r *Runner[float64], byAddr []float64) ([]float64, Stats, error) {
	logN := r.LogN()
	var total Stats
	cur := byAddr
	for k := 1; k <= logN; k++ {
		blockBit := 1 << uint(k)
		for j := k - 1; j >= 0; j-- {
			pass, err := BitsPass(r.W, []int{j})
			if err != nil {
				return nil, total, err
			}
			op := func(_, addr0, _ int, a, b float64) (float64, float64) {
				ascending := addr0&blockBit == 0 || k == logN
				if (a > b) == ascending {
					return b, a
				}
				return a, b
			}
			next, st, err := r.Run(cur, pass, op)
			if err != nil {
				return nil, total, err
			}
			cur = next
			total.SuperSteps += st.SuperSteps
			total.Exchanges += st.Exchanges
			total.CompSteps += st.CompSteps
		}
	}
	total.CommSteps = total.SuperSteps + total.Exchanges
	return cur, total, nil
}

// SortedReference returns a sorted copy, the bitonic sort oracle.
func SortedReference(x []float64) []float64 {
	out := append([]float64(nil), x...)
	sort.Float64s(out)
	return out
}

// AllReduceSum runs an ascend pass that leaves the global sum of the input
// at every node.
func AllReduceSum(r *Runner[float64], byAddr []float64) ([]float64, Stats, error) {
	op := func(_, _, _ int, a, b float64) (float64, float64) {
		s := a + b
		return s, s
	}
	return r.Run(byAddr, AscendPass(r.W), op)
}

// Broadcast propagates the value at address 0 to every node via a descend
// pass.
func Broadcast(r *Runner[float64], value float64) ([]float64, Stats, error) {
	byAddr := make([]float64, r.G.N())
	byAddr[0] = value
	op := func(_, _, _ int, a, _ float64) (float64, float64) {
		return a, a
	}
	return r.Run(byAddr, DescendPass(r.W), op)
}

// PrefixSum computes the inclusive prefix sum (scan) of the values indexed
// by node address, using the classic hypercube scan as an ascend pass:
// each node carries a (prefix, total) pair; at bit b the pair partners
// exchange totals, the high-address side adds the low side's total to its
// prefix, and both adopt the combined total.
func PrefixSum(r *Runner[[2]float64], byAddr []float64) ([]float64, Stats, error) {
	n := len(byAddr)
	byNode := make([][2]float64, n)
	for v, x := range byAddr {
		byNode[v] = [2]float64{x, x}
	}
	op := func(_, _, _ int, lo, hi [2]float64) ([2]float64, [2]float64) {
		total := lo[1] + hi[1]
		hi[0] += lo[1]
		lo[1], hi[1] = total, total
		return lo, hi
	}
	out, st, err := r.Run(byNode, AscendPass(r.W), op)
	if err != nil {
		return nil, st, err
	}
	res := make([]float64, n)
	for v := range res {
		res[v] = out[v][0]
	}
	return res, st, nil
}

// PrefixSumReference is the sequential scan oracle.
func PrefixSumReference(x []float64) []float64 {
	out := make([]float64, len(x))
	run := 0.0
	for i, v := range x {
		run += v
		out[i] = run
	}
	return out
}

// Convolve computes the circular convolution of x and h (indexed by node
// address) on the super-IPG via the convolution theorem: three FFT passes
// plus a pointwise product.  Convolution is one of the paper's listed
// ascend/descend applications.
func Convolve(r *Runner[complex128], x, h []complex128) ([]complex128, Stats, error) {
	var total Stats
	acc := func(st Stats) {
		total.SuperSteps += st.SuperSteps
		total.Exchanges += st.Exchanges
		total.CompSteps += st.CompSteps
	}
	fx, st, err := FFT(r, x, false)
	if err != nil {
		return nil, total, err
	}
	acc(st)
	fh, st, err := FFT(r, h, false)
	if err != nil {
		return nil, total, err
	}
	acc(st)
	prod := make([]complex128, len(fx))
	for i := range prod {
		prod[i] = fx[i] * fh[i]
	}
	out, st, err := FFT(r, prod, true)
	if err != nil {
		return nil, total, err
	}
	acc(st)
	total.CommSteps = total.SuperSteps + total.Exchanges
	return out, total, nil
}

// ConvolveReference is the O(N^2) direct circular convolution.
func ConvolveReference(x, h []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += x[j] * h[(i-j+n)%n]
		}
		out[i] = sum
	}
	return out
}

// TheoreticalAscendComm returns the closed-form communication step count of
// Corollaries 3.6 and 3.7 for a full ascend (or descend) pass: l(n+1) for
// CN families and l(n+2)-2 for swap/flip families, where n is the number of
// nucleus dimensions.  It returns -1 for families without a closed form.
func TheoreticalAscendComm(w *superipg.Network) int {
	n := w.Nuc.NumDims()
	switch w.Family {
	case "ring-CN", "complete-CN", "directed-CN":
		return w.L * (n + 1)
	case "HSN", "SFN", "RCC", "HCN":
		return w.L*(n+2) - 2
	}
	return -1
}

// TheoreticalAscendComp returns the closed-form computation step count of
// Corollary 3.7: l * sum_i (m_i - 1).
func TheoreticalAscendComp(w *superipg.Network) int {
	total := 0
	for _, radix := range w.Nuc.Radices() {
		total += radix - 1
	}
	return w.L * total
}
