package superipg

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"ipg/internal/graph"
	"ipg/internal/nucleus"
	"ipg/internal/topo"
)

// orbitCases lists every super family over each vertex-transitive nucleus
// spec at l = 2..4 (RCC at r = 2), keeping the instances of at most
// orbitMaxNodes nodes.
func orbitCases(t *testing.T) []*Network {
	const orbitMaxNodes = 1300
	var out []*Network
	for _, spec := range []string{"q2", "q3", "fq3", "k4", "c5", "s3", "ghc:3,2"} {
		nuc := func() *nucleus.Nucleus {
			nu, err := nucleus.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			return nu
		}
		if !nuc().VertexTransitive() {
			t.Fatalf("nucleus %s is not marked vertex-transitive", spec)
		}
		cands := []*Network{HSN(2, nuc()), RCC(2, nuc())}
		cands[0].Family = "HCN"
		for l := 2; l <= 4; l++ {
			cands = append(cands, HSN(l, nuc()), RingCN(l, nuc()), CompleteCN(l, nuc()), SFN(l, nuc()))
		}
		for _, w := range cands {
			if w.N() <= orbitMaxNodes {
				out = append(out, w)
			}
		}
	}
	return out
}

// TestOrbitSweepExact checks the orbit reduction of the super-IPG distance
// sweep on every family and nucleus it applies to: the marked view holds
// one representative per cluster, graph.Distances over it equals the
// serial full sweep (the diameter exactly, the average distance bit for
// bit), and the per-node (eccentricity, distance sum) multiset is M copies
// of the representatives' multiset.
func TestOrbitSweepExact(t *testing.T) {
	type eccSum struct {
		ecc int32
		sum int64
	}
	sorted := func(xs []eccSum) []eccSum {
		sort.Slice(xs, func(i, j int) bool {
			if xs[i].ecc != xs[j].ecc {
				return xs[i].ecc < xs[j].ecc
			}
			return xs[i].sum < xs[j].sum
		})
		return xs
	}
	for _, w := range orbitCases(t) {
		w := w
		t.Run(fmt.Sprintf("%s(%d,%s)", w.Family, w.L, w.Nuc.Name), func(t *testing.T) {
			g := w.MustBuild()
			u := w.Undirected(g)
			reps := u.Orbits()
			if len(reps) != w.N()/w.M() {
				t.Fatalf("%d representatives, want one per cluster (%d)", len(reps), w.N()/w.M())
			}
			d, avg, err := graph.Distances(context.Background(), u)
			if err != nil {
				t.Fatal(err)
			}
			if want := u.Diameter(); d != want {
				t.Errorf("orbit diameter %d, full sweep %d", d, want)
			}
			if want := u.AverageDistance(); avg != want {
				t.Errorf("orbit average distance %v, full sweep %v", avg, want)
			}

			c := u.CSR()
			n := c.N()
			dist := make([]int32, n)
			queue := make([]int32, 0, n)
			all := make([]eccSum, n)
			for v := range all {
				ecc, sum, _ := topo.BFSSourceInto(c, v, dist, queue, nil)
				all[v] = eccSum{ecc, sum}
			}
			var want []eccSum
			for k := 0; k < w.M(); k++ {
				for _, r := range reps {
					want = append(want, all[r])
				}
			}
			got, want := sorted(all), sorted(want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("(ecc, sum) multiset differs from %d copies of the representatives' at %d: %v vs %v",
						w.M(), i, got[i], want[i])
				}
			}
		})
	}
}

// TestOrbitMarkNeedsTransitiveNucleus pins that the mark follows a proof:
// a depth-2 RHSN's nucleus is a whole HSN, which is not vertex-transitive,
// so its view stays unmarked and sweeps every node.  (That a graph with an
// added edge is unmarked is pinned in internal/topology's
// TestAddEdgeClearsTransitivity.)
func TestOrbitMarkNeedsTransitiveNucleus(t *testing.T) {
	w := RHSN(2, 2, nucleus.Hypercube(2))
	if w.Nuc.VertexTransitive() {
		t.Fatal("AsNucleus nucleus marked vertex-transitive")
	}
	if reps := w.Undirected(w.MustBuild()).Orbits(); reps != nil {
		t.Fatalf("RHSN(2,2,Q2) view marked with %d representatives", len(reps))
	}
}
