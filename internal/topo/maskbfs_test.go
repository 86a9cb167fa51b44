package topo

import (
	"math/rand"
	"testing"
)

// randomMasks builds random vertex and arc masks over c.  Arc masks are
// always symmetric (both directions of an edge die together), matching the
// contract of the fault layer.
func randomMasks(r *rand.Rand, c *CSR) (vdead, adead []uint64) {
	n := c.N()
	vdead = NewBitset(n)
	adead = NewBitset(c.Arcs())
	for v := 0; v < n; v++ {
		if r.Intn(8) == 0 {
			SetBit(vdead, v)
		}
	}
	for u := 0; u < n; u++ {
		first := c.RowStart(u)
		for j, v := range c.Row(u) {
			if int(v) > u && r.Intn(8) == 0 {
				SetBit(adead, first+j)
				if back := c.ArcIndex(int(v), u); back >= 0 {
					SetBit(adead, back)
				}
			}
		}
	}
	return vdead, adead
}

// TestMaskedNilMasksMatchUnmasked: with nil masks, and with masks that
// hide nothing (which take the masked loops), the masked scalar BFS must
// reproduce the plain kernel bit for bit.
func TestMaskedNilMasksMatchUnmasked(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 16 + r.Intn(200)
		c := randomCSR(t, r, n, trial%4 < 2)
		var vdead, adead []uint64
		if trial%2 == 1 {
			vdead, adead = NewBitset(n), NewBitset(c.Arcs())
		}
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		dist2 := make([]int32, n)
		queue2 := make([]int32, 0, n)
		for src := 0; src < n; src++ {
			ecc, sum, _ := BFSSourceInto(c, src, dist, queue, nil)
			mecc, msum, reached, _ := bfs(c, src, vdead, adead, dist2, queue2, nil)
			// The unmasked kernel encodes disconnection as ecc = -1; the
			// masked kernel reports the reached count instead.
			if ecc >= 0 {
				if mecc != ecc || msum != sum || int(reached) != n {
					t.Fatalf("trial %d src %d: masked (%d,%d,%d) vs unmasked (%d,%d)", trial, src, mecc, msum, reached, ecc, sum)
				}
			} else if int(reached) == n {
				t.Fatalf("trial %d src %d: unmasked says disconnected, masked reached all %d", trial, src, n)
			}
			for v := 0; v < n; v++ {
				if ecc >= 0 && dist[v] != dist2[v] {
					t.Fatalf("trial %d src %d: dist[%d] = %d vs %d", trial, src, v, dist[v], dist2[v])
				}
			}
		}
	}
}

// TestMaskedMSBFSMatchesMaskedScalar: the bit-parallel masked kernel must
// agree with the masked scalar BFS on ecc, distance sum, and reached count
// for every source, under random vertex+arc masks.  The arena result is
// the reference for a sliceTopo copy of the same rows, with and without
// the vertex mask, so each kernel's NeighborsInto arm is checked against
// its arena arm.
func TestMaskedMSBFSMatchesMaskedScalar(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 16 + r.Intn(200)
		c := randomCSR(t, r, n, trial%2 == 0)
		vdead, adead := randomMasks(r, c)
		var sources []int32
		for v := 0; v < n && len(sources) < msbfsBatch; v++ {
			if !Bit(vdead, v) {
				sources = append(sources, int32(v))
			}
		}
		if len(sources) == 0 {
			continue
		}
		st := sliceOf(c)
		scratch := NewMSBFSScratch(n)
		ecc := make([]int32, len(sources))
		sum := make([]int64, len(sources))
		reached := make([]int32, len(sources))
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		for _, tc := range []struct {
			s            Source
			vdead, adead []uint64
		}{
			{c, vdead, adead},
			{c, vdead, nil},
			{st, vdead, nil},
			{st, nil, nil},
		} {
			MSBFSMaskedSourceInto(tc.s, sources, scratch, tc.vdead, tc.adead, ecc, sum, reached, nil)
			for i, src := range sources {
				secc, ssum, sreached, _ := bfs(tc.s, int(src), tc.vdead, tc.adead, dist, queue, nil)
				recc, rsum, rreached, _ := bfs(c, int(src), tc.vdead, tc.adead, dist, queue, nil)
				if ecc[i] != secc || sum[i] != ssum || reached[i] != sreached ||
					secc != recc || ssum != rsum || sreached != rreached {
					t.Fatalf("trial %d %T src %d: msbfs (%d,%d,%d) vs scalar (%d,%d,%d) vs arena scalar (%d,%d,%d)",
						trial, tc.s, src, ecc[i], sum[i], reached[i], secc, ssum, sreached, recc, rsum, rreached)
				}
			}
		}
	}
}

// TestMaskedDeadSourcePanics: sweeping from a dead source is a programming
// error the kernel refuses.
func TestMaskedDeadSourcePanics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randomCSR(t, r, 32, true)
	vdead := NewBitset(32)
	SetBit(vdead, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dead source")
		}
	}()
	scratch := NewMSBFSScratch(32)
	MSBFSMaskedSourceInto(c, []int32{3}, scratch, vdead, nil, make([]int32, 1), make([]int64, 1), make([]int32, 1), nil)
}

// TestArcAccessors pins the ArcIndex/ArcSource/ArcTarget/RowStart
// round-trip the fault layer's link sampling depends on.
func TestArcAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := randomCSR(t, r, 64, true)
	for u := 0; u < c.N(); u++ {
		first := c.RowStart(u)
		for j, v := range c.Row(u) {
			i := first + j
			if got := c.ArcIndex(u, int(v)); got != i {
				t.Fatalf("ArcIndex(%d,%d) = %d, want %d", u, v, got, i)
			}
			if got := c.ArcSource(i); got != u {
				t.Fatalf("ArcSource(%d) = %d, want %d", i, got, u)
			}
			if got := c.ArcTarget(i); got != v {
				t.Fatalf("ArcTarget(%d) = %d, want %d", i, got, v)
			}
		}
		if c.ArcIndex(u, u) >= 0 == !c.HasArc(u, u) {
			t.Fatalf("ArcIndex/HasArc disagree at self-loop %d", u)
		}
	}
}
