package netsim

import (
	"hash/fnv"
	"testing"

	"ipg/internal/fault"
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
// the tables moved to destination-major layout: the re-layout must not
// change a single forwarding decision, adaptive tie-breaks included.
func TestRouterTablePins(t *testing.T) {
	q2 := nucleus.Hypercube(2)
	tableNet := func(w *superipg.Network) *Network {
		net, err := BuildSuperIPG(w, w.MustBuild(), 8, HypercubeRouter{D: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTableRouter(net)
		if err != nil {
			t.Fatal(err)
		}
		net.Router = tr
		return net
	}
	// With three clusters the ring of clusters is complete, so the two CN
	// variants share one table.
	for _, c := range []struct {
		name string
		w    *superipg.Network
		want uint64
	}{
		{"ring-CN(3,Q2)", superipg.RingCN(3, q2), 0xd2d0138e49e37fed},
		{"complete-CN(3,Q2)", superipg.CompleteCN(3, q2), 0xd2d0138e49e37fed},
		{"SFN(3,Q2)", superipg.SFN(3, q2), 0xdd0540dedc12b1b2},
	} {
		net := tableNet(c.w)
		if got := portTableHash(net.N, net.Router.NextPort); got != c.want {
			t.Errorf("%s TableRouter hash = %#x, want %#x", c.name, got, c.want)
		}
	}

	hsn, _ := mustHSN(t, 3, 2, 8)
	for _, c := range []struct {
		spec               fault.Spec
		wantNext, wantAdpt uint64
	}{
		{fault.Spec{Mode: fault.Links, Count: 10, Seed: 3}, 0x91239f5dc427b36a, 0x83bc58f6faa7caa5},
		{fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 2}, 0xfdeda76ddd041f6b, 0xefe4a97278bb4555},
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
}
