package netsim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/ist"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

// pinQlen is the synthetic queue-length pattern the adaptive pins feed
// NextPortAdaptive: varied enough to exercise every tie-break.
func pinQlen(cur, p int) int32 { return int32((cur*7 + p*3) % 5) }

// portTableHash is the FNV-1a hash of next(cur, dst) over every ordered
// pair, cur-major, each port written as two little-endian bytes.
func portTableHash(n int, next func(cur, dst int) int) uint64 {
	h := fnv.New64a()
	var b [2]byte
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			p := uint16(int16(next(cur, dst)))
			b[0], b[1] = byte(p), byte(p>>8)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestRouterTablePins pins every router table to hashes captured before
// the table builders shared one routing core: no refactor of the builders
// may change a single forwarding decision, adaptive tie-breaks and
// multipath tier counts included.  Every build runs at GOMAXPROCS 1, 2
// and 7, which also pins the tables as independent of the worker count.
// The TableRouter hashes were recaptured once, when TableRouter took
// minimalPort's tie-break; each equals the FaultAwareRouter's hash on the
// same healthy network.
func TestRouterTablePins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), pinRouterTables)
	}
}

func pinRouterTables(t *testing.T) {
	q2 := nucleus.Hypercube(2)
	superNet := func(w *superipg.Network) *Network {
		net, err := BuildSuperIPG(w, w.MustBuild(), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	// With three clusters the ring of clusters is complete, so the two CN
	// variants share one table.
	for _, c := range []struct {
		name string
		w    *superipg.Network
		want uint64
	}{
		{"ring-CN(3,Q2)", superipg.RingCN(3, q2), 0xe072a1e343323675},
		{"complete-CN(3,Q2)", superipg.CompleteCN(3, q2), 0xe072a1e343323675},
		{"SFN(3,Q2)", superipg.SFN(3, q2), 0xb8a878e75bf00f95},
	} {
		net := superNet(c.w)
		if _, ok := net.Router.(*TableRouter); !ok {
			t.Fatalf("%s: BuildSuperIPG picked %T, want *TableRouter", c.name, net.Router)
		}
		if got := portTableHash(net.N, net.Router.NextPort); got != c.want {
			t.Errorf("%s TableRouter hash = %#x, want %#x", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		name string
		w    *superipg.Network
		want uint64
	}{
		{"HSN(3,Q2)", superipg.HSN(3, q2), 0xdba911e427ff8aa5},
		{"HSN(3,Q3)", superipg.HSN(3, nucleus.Hypercube(3)), 0x73b8f9a7c4dfaf25},
		{"HSN(2,Q4)", superipg.HSN(2, nucleus.Hypercube(4)), 0xb25775101e5a6125},
		{"HCN(3)", superipg.HCN(3), 0x7fbe31091ae559a5},
	} {
		net := superNet(c.w)
		if _, ok := net.Router.(*HSNRouter); !ok {
			t.Fatalf("%s: BuildSuperIPG picked %T, want *HSNRouter", c.name, net.Router)
		}
		if got := portTableHash(net.N, net.Router.NextPort); got != c.want {
			t.Errorf("%s HSNRouter hash = %#x, want %#x", c.name, got, c.want)
		}
	}

	hsn, _ := mustHSN(t, 3, 2, 8)
	for _, c := range []struct {
		spec               fault.Spec
		wantNext, wantAdpt uint64
	}{
		{fault.Spec{Mode: fault.Links, Count: 10, Seed: 3}, 0xe3d0955e7783f85d, 0x2b08f55e38184589},
		{fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 2}, 0x2bf03796e96f133b, 0xd46b9c4b3f6e1a22},
	} {
		net, _, err := Degrade(hsn, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewFaultAwareRouter(net)
		if err != nil {
			t.Fatal(err)
		}
		if got := portTableHash(net.N, r.NextPort); got != c.wantNext {
			t.Errorf("HSN(3,Q2) %s FaultAwareRouter hash = %#x, want %#x", c.spec.Mode, got, c.wantNext)
		}
		qlen := make([]int32, 0, 8)
		adaptive := func(cur, dst int) int {
			qlen = qlen[:0]
			for p := 0; p < net.Ports.Arity(cur); p++ {
				qlen = append(qlen, pinQlen(cur, p))
			}
			return r.NextPortAdaptive(cur, dst, qlen)
		}
		if got := portTableHash(net.N, adaptive); got != c.wantAdpt {
			t.Errorf("HSN(3,Q2) %s FaultAwareRouter adaptive hash = %#x, want %#x", c.spec.Mode, got, c.wantAdpt)
		}
	}

	hc := mustHypercube(t, 6, 2, 8)
	hcTrees := func(dst int) (*ist.Trees, error) { return ist.BuildHypercube(6, dst, 6) }
	for _, c := range []struct {
		name                    string
		base                    *Network
		trees                   TreeSource
		spec                    fault.Spec
		want                    uint64
		tree, fallback, unreach int64
	}{
		{"HSN(3,Q2) healthy", hsn, GenericTreeSource(hsn, 2), fault.Spec{}, 0x57a692e2259bc4cb, 4032, 0, 0},
		{"HSN(3,Q2) links 10", hsn, GenericTreeSource(hsn, 2), fault.Spec{Mode: fault.Links, Count: 10, Seed: 3}, 0xd565b4a043e59400, 2681, 1351, 0},
		{"HSN(3,Q2) nodes 4", hsn, GenericTreeSource(hsn, 2), fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 2}, 0x11f2b78169945f58, 3142, 398, 0},
		{"HSN(3,Q2) links 40", hsn, GenericTreeSource(hsn, 2), fault.Spec{Mode: fault.Links, Count: 40, Seed: 5}, 0x79dc3b39774e8eee, 541, 3011, 480},
		{"Q6 links 20", hc, hcTrees, fault.Spec{Mode: fault.Links, Count: 20, Seed: 1}, 0xc1c00f98c878724f, 4015, 17, 0},
		{"Q6 nodes 6", hc, hcTrees, fault.Spec{Mode: fault.Nodes, Count: 6, Seed: 2}, 0x36a2831ed292bb3d, 3306, 0, 0},
	} {
		net, _, err := Degrade(c.base, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewMultipathRouter(net, c.trees)
		if err != nil {
			t.Fatal(err)
		}
		if got := portTableHash(net.N, r.NextPort); got != c.want {
			t.Errorf("%s MultipathRouter hash = %#x, want %#x", c.name, got, c.want)
		}
		if tp, fp, up := r.TreePairs.Load(), r.FallbackPairs.Load(), r.UnreachablePairs.Load(); tp != c.tree || fp != c.fallback || up != c.unreach {
			t.Errorf("%s MultipathRouter pairs = %d/%d/%d, want %d/%d/%d", c.name, tp, fp, up, c.tree, c.fallback, c.unreach)
		}
	}
}
