package netsim

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

// orbitTableCases lists the table-routed families (ring-CN, complete-CN
// and SFN) of superipg's orbitCases: every vertex-transitive nucleus spec
// there at l = 2..4, keeping the instances of at most 1300 nodes.
func orbitTableCases(t *testing.T) []*superipg.Network {
	const orbitMaxNodes = 1300
	var out []*superipg.Network
	for _, spec := range []string{"q2", "q3", "fq3", "k4", "c5", "s3", "ghc:3,2"} {
		for l := 2; l <= 4; l++ {
			for _, family := range []func(int, *nucleus.Nucleus) *superipg.Network{superipg.RingCN, superipg.CompleteCN, superipg.SFN} {
				nuc, err := nucleus.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !nuc.VertexTransitive() {
					t.Fatalf("nucleus %s is not marked vertex-transitive", spec)
				}
				if w := family(l, nuc); w.N() <= orbitMaxNodes {
					out = append(out, w)
				}
			}
		}
	}
	return out
}

// TestOrbitTableRouter checks the representative-row table on every
// table-routed orbit case: BuildSuperIPG's TableRouter keeps N/M x N
// cells and answers exactly like the FaultAwareRouter of the same healthy
// network on every ordered pair, with the table built at GOMAXPROCS 1, 2
// and 7; and every σ_s keeps ports, is one-to-one, and sends each node
// whose first group is nucleus state s to a node whose first group is the
// nucleus seed.
func TestOrbitTableRouter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range orbitTableCases(t) {
		t.Run(w.Name(), func(t *testing.T) {
			g := w.MustBuild()
			var want []int16
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				net, err := BuildSuperIPG(w, g, 8, nil)
				if err != nil {
					t.Fatal(err)
				}
				tr, ok := net.Router.(*TableRouter)
				if !ok {
					t.Fatalf("BuildSuperIPG picked %T, want *TableRouter", net.Router)
				}
				if tr.orbit == nil {
					t.Fatal("no orbit maps on a healthy super-IPG over a vertex-transitive nucleus")
				}
				if got, cells := len(tr.table), net.N/w.M()*net.N; got != cells {
					t.Fatalf("table holds %d cells, want N/M x N = %d", got, cells)
				}
				if want != nil {
					if !slices.Equal(tr.table, want) {
						t.Fatalf("GOMAXPROCS=%d table differs from GOMAXPROCS=1's", procs)
					}
					continue
				}
				want = tr.table
				far, err := NewFaultAwareRouter(net)
				if err != nil {
					t.Fatal(err)
				}
				for cur := 0; cur < net.N; cur++ {
					for dst := 0; dst < net.N; dst++ {
						if got, exp := tr.NextPort(cur, dst), far.NextPort(cur, dst); got != exp {
							t.Fatalf("NextPort(%d, %d) = %d, fault-aware router says %d", cur, dst, got, exp)
						}
					}
				}
				checkOrbitMaps(t, w, net)
			}
		})
	}
}

// checkOrbitMaps checks net's orbit maps against the node labels.
// Nucleus state s is the nucleus node with address s.
func checkOrbitMaps(t *testing.T, w *superipg.Network, net *Network) {
	t.Helper()
	g := w.MustBuild()
	n, m, o := net.N, w.SymbolLen(), net.orbit
	if len(o.sigma) != w.M()*n {
		t.Fatalf("%d map entries, want M x N = %d", len(o.sigma), w.M()*n)
	}
	for s := 0; s < w.M(); s++ {
		state, err := w.Nuc.LabelOf(s)
		if err != nil {
			t.Fatal(err)
		}
		sig := o.sigma[s*n : (s+1)*n]
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			sv := int(sig[v])
			if sv >= n || seen[sv] {
				t.Fatalf("σ_%d is not a permutation: σ(%d) = %d", s, v, sv)
			}
			seen[sv] = true
			for p, u := range net.Ports.PortRow(v) {
				img := net.Ports.Port(sv, p)
				if (u < 0) != (img < 0) || (u >= 0 && int32(sig[u]) != img) {
					t.Fatalf("σ_%d does not keep port %d at %d: Port(σ(v), p) = %d, σ(Port(v, p)) from %d", s, p, v, img, u)
				}
			}
			if first := g.Label(v).Group(m, 0); bytes.Equal(first, state) {
				if int(o.state[v]) != s {
					t.Fatalf("node %d has first group %v = nucleus state %d, maps say %d", v, first, s, o.state[v])
				}
				if rep := g.Label(sv).Group(m, 0); !bytes.Equal(rep, w.Nuc.Seed) {
					t.Fatalf("σ_%d sends node %d (first group %v) to %d, whose first group %v is not the seed", s, v, first, sv, rep)
				}
				if o.reps[o.row[v]] != int32(sv) {
					t.Fatalf("node %d reads row %d (node %d), want σ_%d's image %d", v, o.row[v], o.reps[o.row[v]], s, sv)
				}
			}
		}
	}
	for _, r := range o.reps {
		if !bytes.Equal(g.Label(int(r)).Group(m, 0), w.Nuc.Seed) {
			t.Fatalf("representative %d does not start with the nucleus seed", r)
		}
	}
}

// TestTableRouterFullRows pins the cases that keep a row per
// destination: a degraded network (even one whose base carries orbit
// maps) and a nucleus without a vertex-transitive proof.  Both answer
// exactly like the FaultAwareRouter of the same network.
func TestTableRouterFullRows(t *testing.T) {
	ringCN := superipg.RingCN(3, nucleus.Hypercube(3))
	base, err := BuildSuperIPG(ringCN, ringCN.MustBuild(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	degraded, _, err := Degrade(base, fault.Spec{Mode: fault.Links, Count: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nested := superipg.RingCN(2, superipg.HSN(2, nucleus.Hypercube(2)).AsNucleus())
	if nested.Nuc.VertexTransitive() {
		t.Fatal("a super-IPG nucleus is marked vertex-transitive")
	}
	plain, err := BuildSuperIPG(nested, nested.MustBuild(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Network{degraded, plain} {
		tr, err := NewTableRouter(net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if tr.orbit != nil || len(tr.table) != net.N*net.N {
			t.Fatalf("%s: table keeps %d cells, want a full N x N = %d", net.Name, len(tr.table), net.N*net.N)
		}
		far, err := NewFaultAwareRouter(net)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := portTableHash(net.N, tr.NextPort), portTableHash(net.N, far.NextPort); got != want {
			t.Errorf("%s: TableRouter hash %#x, fault-aware router %#x", net.Name, got, want)
		}
	}
}

// TestTableRouterNeedsSymmetricArcs names the error a one-way alive arc
// gets: a directed CN has one intercluster arc per node and no reverse.
func TestTableRouterNeedsSymmetricArcs(t *testing.T) {
	w := superipg.DirectedCN(3, nucleus.Hypercube(2))
	_, err := BuildSuperIPG(w, w.MustBuild(), 8, nil)
	if err == nil || !strings.Contains(err.Error(), "has no alive reverse") {
		t.Fatalf("BuildSuperIPG(%s) error = %v, want a one-way alive arc", w.Name(), err)
	}
	net, err := BuildSuperIPG(w, w.MustBuild(), 8, HypercubeRouter{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, tableErr := NewTableRouter(net)
	_, awareErr := NewFaultAwareRouter(net)
	if tableErr == nil || awareErr == nil || tableErr.Error() != awareErr.Error() {
		t.Fatalf("NewTableRouter error %v, NewFaultAwareRouter error %v; want the same one-way arc error", tableErr, awareErr)
	}
}
