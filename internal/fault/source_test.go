package fault_test

import (
	"context"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/topo"
)

// implicitCodecs pairs each baseline golden family's CSR with its
// rank/unrank codec; both views of the same graph must degrade
// identically under the same fault spec.
func implicitCodecs(t *testing.T) []struct {
	name  string
	csr   *topo.CSR
	im    *topo.Implicit
	chips []int32
} {
	t.Helper()
	mk := func(name string, c topo.Codec, err error, chipOf func(v int) int32) struct {
		name  string
		csr   *topo.CSR
		im    *topo.Implicit
		chips []int32
	} {
		if err != nil {
			t.Fatal(err)
		}
		im := topo.NewImplicit(c)
		csr, err := topo.Build(im.N(), func(edge func(u, v int)) {
			var buf []int32
			for v := 0; v < im.N(); v++ {
				buf = im.NeighborsInto(v, buf)
				for _, u := range buf {
					edge(v, int(u))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		chips := make([]int32, im.N())
		for v := range chips {
			chips[v] = chipOf(v)
		}
		return struct {
			name  string
			csr   *topo.CSR
			im    *topo.Implicit
			chips []int32
		}{name, csr, im, chips}
	}
	hc, herr := topo.NewHypercubeCodec(6)
	tc, terr := topo.NewTorusCodec(8, 2)
	cc, cerr := topo.NewCCCCodec(3)
	return []struct {
		name  string
		csr   *topo.CSR
		im    *topo.Implicit
		chips []int32
	}{
		mk("Q6", hc, herr, func(v int) int32 { return int32(v >> 2) }),
		mk("8-ary 2-cube", tc, terr, func(v int) int32 { return int32((v%8)/2 + 4*(v/16)) }),
		mk("CCC(3)", cc, cerr, func(v int) int32 { return int32(v / 3) }),
	}
}

// TestSourceAnalyzeMatchesCSR runs the same node- and chip-fault specs
// through the materialized (CSR, arc-mask capable) path and the generic
// source path over the implicit codec, and requires bit-identical
// reports.  The fault sampling is seeded by (n, spec) only, so the two
// paths realize the same failure scenario; any divergence is a kernel
// disagreement, not sampling noise.
func TestSourceAnalyzeMatchesCSR(t *testing.T) {
	for _, tc := range implicitCodecs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			specs := []fault.Spec{
				{Mode: fault.Nodes, Count: 5, Seed: 42},
				{Mode: fault.Chips, Count: 2, Seed: 7},
			}
			for _, spec := range specs {
				setCSR, err := fault.NewForSource(tc.csr, spec, tc.chips)
				if err != nil {
					t.Fatalf("%s/CSR: %v", spec.Mode, err)
				}
				setImp, err := fault.NewForSource(tc.im, spec, tc.chips)
				if err != nil {
					t.Fatalf("%s/implicit: %v", spec.Mode, err)
				}
				if len(setCSR.DeadVertices) != len(setImp.DeadVertices) {
					t.Fatalf("%s: sampling diverged: %d vs %d dead", spec.Mode,
						len(setCSR.DeadVertices), len(setImp.DeadVertices))
				}
				for i := range setCSR.DeadVertices {
					if setCSR.DeadVertices[i] != setImp.DeadVertices[i] {
						t.Fatalf("%s: dead vertex %d differs: %d vs %d", spec.Mode, i,
							setCSR.DeadVertices[i], setImp.DeadVertices[i])
					}
				}
				dc, err := fault.NewDegradedView(tc.csr, setCSR)
				if err != nil {
					t.Fatal(err)
				}
				di, err := fault.NewDegradedSourceView(tc.im, setImp)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := dc.WithClusters(tc.chips).Analyze(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				ri, err := di.WithClusters(tc.chips).Analyze(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if *rc != *ri {
					t.Errorf("%s: reports diverged:\nCSR:      %+v\nimplicit: %+v", spec.Mode, *rc, *ri)
				}
			}
		})
	}
}

// TestSourceViewDegreesMatchCSR checks the per-vertex filtered Degree and
// Neighbors of the generic degraded view against the CSR-backed one.
func TestSourceViewDegreesMatchCSR(t *testing.T) {
	tc := implicitCodecs(t)[0] // Q6
	spec := fault.Spec{Mode: fault.Nodes, Count: 9, Seed: 3}
	set, err := fault.NewForSource(tc.im, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	setCSR, err := fault.New(tc.csr, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := fault.NewDegradedView(tc.csr, setCSR)
	if err != nil {
		t.Fatal(err)
	}
	di, err := fault.NewDegradedSourceView(tc.im, set)
	if err != nil {
		t.Fatal(err)
	}
	var cb, ib []int32
	for v := 0; v < tc.csr.N(); v++ {
		cb = dc.NeighborsInto(v, cb)
		ib = di.NeighborsInto(v, ib)
		if len(cb) != len(ib) {
			t.Fatalf("v=%d: CSR degree %d, implicit degree %d", v, len(cb), len(ib))
		}
		for i := range cb {
			if cb[i] != ib[i] {
				t.Fatalf("v=%d: rows diverge: %v vs %v", v, cb, ib)
			}
		}
	}
}

// TestLinkFaultsRequireArena checks the documented restriction: arc-mask
// fault modes index CSR arena positions and must be rejected on a purely
// implicit source rather than silently mis-sampling.
func TestLinkFaultsRequireArena(t *testing.T) {
	hc, err := topo.NewHypercubeCodec(6)
	if err != nil {
		t.Fatal(err)
	}
	im := topo.NewImplicit(hc)
	for _, mode := range []fault.Mode{fault.Links, fault.Adversarial} {
		if _, err := fault.NewForSource(im, fault.Spec{Mode: mode, Count: 3, Seed: 1}, nil); err == nil {
			t.Errorf("%s faults accepted on an implicit source", mode)
		}
	}
}
