package ascend

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

func runnerFor[T any](t *testing.T, w *superipg.Network) (*Runner[T], *superipg.Graph) {
	t.Helper()
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner[T](w, g)
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

func testNetworks() []*superipg.Network {
	q2 := nucleus.Hypercube(2)
	return []*superipg.Network{
		superipg.HSN(3, q2),
		superipg.RingCN(3, q2),
		superipg.CompleteCN(3, q2),
		superipg.SFN(3, q2),
		superipg.HSN(2, nucleus.Hypercube(3)),
	}
}

func TestAscendMatchesReference(t *testing.T) {
	// A generic non-commutative op: results must match the direct
	// address-array execution exactly.
	op := func(bit, a0, a1 int, x, y float64) (float64, float64) {
		return x + 2*y + float64(bit), x - y + float64(a0%7) - float64(a1%5)
	}
	for _, w := range testNetworks() {
		r, g := runnerFor[float64](t, w)
		n := g.N()
		rng := rand.New(rand.NewSource(42))
		byAddr := make([]float64, n)
		for i := range byAddr {
			byAddr[i] = rng.Float64()
		}
		byNode := make([]float64, n)
		for v := 0; v < n; v++ {
			byNode[v] = byAddr[v]
		}
		got, st, err := r.Run(byNode, AscendPass(w), op)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		want := Reference(byAddr, AscendBits(r.LogN()), op)
		for v := 0; v < n; v++ {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: node %d: got %v want %v", w.Name(), v, got[v], want[v])
			}
		}
		if st.CommSteps != st.SuperSteps+st.Exchanges {
			t.Errorf("%s: comm accounting inconsistent: %+v", w.Name(), st)
		}
	}
}

func TestDescendMatchesReference(t *testing.T) {
	op := func(bit, a0, a1 int, x, y float64) (float64, float64) {
		return 0.5*x + y, float64(bit+1) * (x - 0.25*y)
	}
	for _, w := range testNetworks() {
		r, g := runnerFor[float64](t, w)
		n := g.N()
		byAddr := make([]float64, n)
		for i := range byAddr {
			byAddr[i] = float64(i*i%97) / 7
		}
		byNode := make([]float64, n)
		for v := 0; v < n; v++ {
			byNode[v] = byAddr[v]
		}
		got, _, err := r.Run(byNode, DescendPass(w), op)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		want := Reference(byAddr, DescendBits(r.LogN()), op)
		for v := 0; v < n; v++ {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: node %d mismatch", w.Name(), v)
			}
		}
	}
}

func TestNoFinalRestore(t *testing.T) {
	// The paper's remark after Corollary 3.7: skipping the final
	// rearrangement saves communication steps; results are still correct,
	// just displaced (Run re-indexes them logically).
	op := func(_, _, _ int, a, b float64) (float64, float64) {
		s := a + b
		return s, s
	}
	for _, w := range testNetworks() {
		r, g := runnerFor[float64](t, w)
		data := make([]float64, g.N())
		sum := 0.0
		for i := range data {
			data[i] = float64(i % 9)
			sum += data[i]
		}
		full := AscendPass(w)
		_, stFull, err := r.Run(data, full, op)
		if err != nil {
			t.Fatal(err)
		}
		fast := AscendPass(w)
		fast.NoFinalRestore = true
		out, stFast, err := r.Run(data, fast, op)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if stFast.SuperSteps >= stFull.SuperSteps {
			t.Errorf("%s: no-restore should save super steps (%d vs %d)",
				w.Name(), stFast.SuperSteps, stFull.SuperSteps)
		}
		for _, v := range out {
			if v != sum {
				t.Fatalf("%s: all-reduce value %v, want %v", w.Name(), v, sum)
			}
		}
		// RunPlaced exposes the raw displaced placement: a bijection.
		_, placement, _, err := r.RunPlaced(data, fast, op)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, g.N())
		for _, a := range placement {
			if seen[a] {
				t.Fatalf("%s: placement not a bijection", w.Name())
			}
			seen[a] = true
		}
	}
}

func TestCorollary36CommSteps(t *testing.T) {
	// CN over Q_k: l(k+1) comm steps; HSN/SFN over Q_k: l(k+2)-2.
	for k := 1; k <= 3; k++ {
		nuc := nucleus.Hypercube(k)
		for l := 2; l <= 3; l++ {
			for _, w := range []*superipg.Network{
				superipg.HSN(l, nuc),
				superipg.SFN(l, nuc),
				superipg.RingCN(l, nuc),
				superipg.CompleteCN(l, nuc),
			} {
				r, g := runnerFor[float64](t, w)
				data := make([]float64, g.N())
				_, st, err := r.Run(data, AscendPass(w), func(_, _, _ int, a, b float64) (float64, float64) { return a, b })
				if err != nil {
					t.Fatal(err)
				}
				want := TheoreticalAscendComm(w)
				if st.CommSteps != want {
					t.Errorf("%s: ascend comm steps = %d, want %d", w.Name(), st.CommSteps, want)
				}
				// Descend costs the same.
				_, st2, err := r.Run(data, DescendPass(w), func(_, _, _ int, a, b float64) (float64, float64) { return a, b })
				if err != nil {
					t.Fatal(err)
				}
				if st2.CommSteps != want {
					t.Errorf("%s: descend comm steps = %d, want %d", w.Name(), st2.CommSteps, want)
				}
			}
		}
	}
}

func TestCorollary37GHCSteps(t *testing.T) {
	// The paper's example: m_i = 4, n = 3 nucleus: ascend in (2/3)log2(N)
	// comm steps on a CN and (5/6)log2(N)-2 on an HSN, with l*sum(m_i-1)
	// computation steps.
	nuc := nucleus.GeneralizedHypercube(4, 4, 4)
	l := 2
	logN := 6 * l // N = 64^l
	for _, w := range []*superipg.Network{
		superipg.CompleteCN(l, nuc),
		superipg.HSN(l, nuc),
	} {
		r, g := runnerFor[float64](t, w)
		data := make([]float64, g.N())
		_, st, err := r.Run(data, AscendPass(w), func(_, _, _ int, a, b float64) (float64, float64) { return a, b })
		if err != nil {
			t.Fatal(err)
		}
		var wantComm int
		switch w.Family {
		case "complete-CN":
			wantComm = 2 * logN / 3
		case "HSN":
			wantComm = 5*logN/6 - 2
		}
		if st.CommSteps != wantComm {
			t.Errorf("%s: comm steps = %d, want %d", w.Name(), st.CommSteps, wantComm)
		}
		if want := TheoreticalAscendComp(w); st.CompSteps != want {
			t.Errorf("%s: comp steps = %d, want %d", w.Name(), st.CompSteps, want)
		}
	}
}

func TestFFTAgainstDFT(t *testing.T) {
	for _, w := range testNetworks() {
		r, g := runnerFor[complex128](t, w)
		n := g.N()
		rng := rand.New(rand.NewSource(7))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		got, st, err := FFT(r, x, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		want := DFT(x, false)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-6*float64(n) {
				t.Fatalf("%s: FFT[%d] = %v, want %v", w.Name(), k, got[k], want[k])
			}
		}
		if st.CommSteps != TheoreticalAscendComm(w) {
			t.Errorf("%s: FFT comm steps = %d, want %d", w.Name(), st.CommSteps, TheoreticalAscendComm(w))
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	w := superipg.HSN(2, nucleus.Hypercube(3))
	r, g := runnerFor[complex128](t, w)
	n := g.N()
	rng := rand.New(rand.NewSource(11))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	spec, _, err := FFT(r, x, false)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := FFT(r, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(back[i]-x[i]) > 1e-9*float64(n) {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, back[i], x[i])
		}
	}
}

func TestBitonicSort(t *testing.T) {
	for _, w := range testNetworks() {
		r, g := runnerFor[float64](t, w)
		n := g.N()
		rng := rand.New(rand.NewSource(13))
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
		}
		got, st, err := BitonicSort(r, keys)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		want := SortedReference(keys)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sorted[%d] = %v, want %v", w.Name(), i, got[i], want[i])
			}
		}
		logN := r.LogN()
		if st.Exchanges != logN*(logN+1)/2 {
			t.Errorf("%s: exchanges = %d, want %d", w.Name(), st.Exchanges, logN*(logN+1)/2)
		}
	}
}

func TestLargeParallelFFT(t *testing.T) {
	// 4096 nodes crosses the engine's parallel-execution threshold (256
	// subgroup blocks), exercising the worker-pool paths; results are
	// verified by inverse round trip.
	w := superipg.HSN(3, nucleus.Hypercube(4))
	r, g := runnerFor[complex128](t, w)
	rng := rand.New(rand.NewSource(21))
	x := make([]complex128, g.N())
	for i := range x {
		x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	spec, st, err := FFT(r, x, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommSteps != TheoreticalAscendComm(w) {
		t.Errorf("comm steps = %d, want %d", st.CommSteps, TheoreticalAscendComm(w))
	}
	back, _, err := FFT(r, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(back[i]-x[i]) > 1e-8*float64(g.N()) {
			t.Fatalf("roundtrip failed at %d", i)
		}
	}
}

func TestAllReduceAndBroadcast(t *testing.T) {
	w := superipg.CompleteCN(3, nucleus.Hypercube(2))
	r, g := runnerFor[float64](t, w)
	n := g.N()
	vals := make([]float64, n)
	sum := 0.0
	for i := range vals {
		vals[i] = float64(i)
		sum += vals[i]
	}
	red, _, err := AllReduceSum(r, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range red {
		if math.Abs(red[i]-sum) > 1e-9 {
			t.Fatalf("allreduce[%d] = %v, want %v", i, red[i], sum)
		}
	}
	bc, _, err := Broadcast(r, 42.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bc {
		if bc[i] != 42.5 {
			t.Fatalf("broadcast[%d] = %v", i, bc[i])
		}
	}
}

func TestBitsPassErrors(t *testing.T) {
	w := superipg.CompleteCN(2, nucleus.Complete(4))
	if _, err := BitsPass(w, []int{0}); err == nil {
		t.Error("BitsPass should reject radix-4 dimensions")
	}
	w2 := superipg.HSN(2, nucleus.Hypercube(2))
	if _, err := BitsPass(w2, []int{9}); err == nil {
		t.Error("BitsPass should reject out-of-range bits")
	}
}

func TestNewRunnerRejectsNonPowerOf2(t *testing.T) {
	w := superipg.HSN(2, nucleus.Complete(3))
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner[float64](w, g); err == nil {
		t.Error("NewRunner should reject K3 nucleus (M not a power of 2)")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	w := superipg.HSN(2, nucleus.Hypercube(2))
	r, _ := runnerFor[float64](t, w)
	if _, _, err := r.Run(make([]float64, 3), AscendPass(w), nil); err == nil {
		t.Error("Run should reject wrong-length data")
	}
	bad := Pass{Dims: []DimRef{{Group: 9, Dim: 0}}}
	if _, _, err := r.Run(make([]float64, 16), bad, func(_, _, _ int, a, b float64) (float64, float64) { return a, b }); err == nil {
		t.Error("Run should reject bad dimension refs")
	}
}

func TestRadix4ButterflyOrder(t *testing.T) {
	// GHC(4,4) nucleus: ascend over a radix-4 dimension must apply bit 0
	// then bit 1 inside the dimension, matching the reference.
	w := superipg.HSN(2, nucleus.GeneralizedHypercube(4, 4))
	r, g := runnerFor[float64](t, w)
	n := g.N()
	byAddr := make([]float64, n)
	for i := range byAddr {
		byAddr[i] = float64((i*37 + 11) % 101)
	}
	byNode := make([]float64, n)
	for v := 0; v < n; v++ {
		byNode[v] = byAddr[v]
	}
	op := func(bit, a0, a1 int, x, y float64) (float64, float64) {
		return x + y*float64(bit+1), x*float64(bit+2) - y
	}
	got, _, err := r.Run(byNode, AscendPass(w), op)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(byAddr, AscendBits(r.LogN()), op)
	for v := 0; v < n; v++ {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("radix-4 mismatch at node %d", v)
		}
	}
}
