package topo

import (
	"testing"
)

// ring returns a CSR cycle on n vertices, emitting every edge from both
// endpoints to exercise the duplicate collapse.
func ring(t *testing.T, n int) *CSR {
	t.Helper()
	c, err := Build(n, func(edge func(u, v int)) {
		for v := 0; v < n; v++ {
			edge(v, (v+1)%n)
			edge(v, (v-1+n)%n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildSortsDedupsAndDropsLoops(t *testing.T) {
	c, err := Build(4, func(edge func(u, v int)) {
		edge(2, 1)
		edge(1, 2) // duplicate from the other endpoint
		edge(1, 2) // plain duplicate
		edge(0, 3)
		edge(3, 3) // self-loop: dropped
		edge(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || c.Arcs() != 6 {
		t.Fatalf("N=%d Arcs=%d, want 4, 6", c.N(), c.Arcs())
	}
	wantRows := [][]int32{{1, 3}, {0, 2}, {1}, {0}}
	for v, want := range wantRows {
		row := c.Row(v)
		if len(row) != len(want) {
			t.Fatalf("row %d = %v, want %v", v, row, want)
		}
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("row %d = %v, want %v", v, row, want)
			}
		}
	}
	if !c.HasArc(0, 3) || c.HasArc(0, 2) || c.HasArc(3, 3) {
		t.Error("HasArc wrong")
	}
	buf := c.NeighborsInto(1, nil)
	if len(buf) != 2 || buf[0] != 0 || buf[1] != 2 {
		t.Errorf("Neighbors(1) = %v", buf)
	}
}

func TestBuildArcsDirected(t *testing.T) {
	c, err := BuildArcs(3, func(arc func(u, v int)) {
		arc(0, 1)
		arc(1, 2)
		arc(2, 0)
		arc(0, 1) // duplicate
		arc(1, 1) // self-arc: dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Arcs() != 3 {
		t.Fatalf("Arcs = %d, want 3", c.Arcs())
	}
	if !c.HasArc(0, 1) || c.HasArc(1, 0) {
		t.Error("directed arcs wrong")
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range endpoint should panic")
		}
	}()
	_, _ = Build(2, func(edge func(u, v int)) { edge(0, 5) })
}

func TestBuildRejectsUnstableStream(t *testing.T) {
	calls := 0
	defer func() {
		if recover() == nil {
			t.Error("a stream emitting extra edges on the fill pass should panic")
		}
	}()
	_, _ = Build(3, func(edge func(u, v int)) {
		calls++
		edge(0, 1)
		if calls == 2 {
			edge(1, 2)
		}
	})
}

func TestBFSOnRing(t *testing.T) {
	c := ring(t, 8)
	dist := make([]int32, 8)
	ecc, sum, _ := BFSSourceInto(c, 0, dist, make([]int32, 0, 8), nil)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
	if ecc != 4 || sum != 16 {
		t.Errorf("BFSSourceInto: ecc=%d sum=%d, want 4, 16", ecc, sum)
	}
}

func TestBFSDisconnected(t *testing.T) {
	c, err := Build(4, func(edge func(u, v int)) { edge(0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if ecc, _, _ := BFSSourceInto(c, 0, make([]int32, 4), nil, nil); ecc != -1 {
		t.Errorf("ecc = %d on a disconnected graph, want -1", ecc)
	}
}

// sliceTopo is a non-CSR Source, so the kernels read its rows through
// NeighborsInto rather than in place.
type sliceTopo [][]int32

// sliceOf copies c's rows into a sliceTopo.
func sliceOf(c *CSR) sliceTopo {
	st := make(sliceTopo, c.N())
	for v := range st {
		st[v] = c.NeighborsInto(v, nil)
	}
	return st
}

func (s sliceTopo) N() int { return len(s) }
func (s sliceTopo) DegreeBound() int {
	d := 0
	for _, row := range s {
		d = max(d, len(row))
	}
	return d
}
func (s sliceTopo) NeighborsInto(v int, buf []int32) []int32 {
	return append(buf[:0], s[v]...)
}

func TestBFSInterfacePathMatchesCSR(t *testing.T) {
	c := ring(t, 6)
	st := sliceOf(c)
	a, b := make([]int32, 6), make([]int32, 6)
	for src := 0; src < 6; src++ {
		BFSSourceInto(c, src, a, nil, nil)
		BFSSourceInto(st, src, b, nil, nil)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("src %d: CSR and interface BFS disagree at %d: %d vs %d", src, v, a[v], b[v])
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := ring(t, 5), ring(t, 5)
	if !Equal(a, b) {
		t.Error("identical rings should be Equal")
	}
	c := ring(t, 6)
	if Equal(a, c) {
		t.Error("different rings should not be Equal")
	}
}

func TestPortMapRoundTrip(t *testing.T) {
	pm, err := NewUniformPortMap(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pm.N() != 3 || pm.Arity(1) != 2 {
		t.Fatalf("N=%d Arity=%d", pm.N(), pm.Arity(1))
	}
	if pm.Port(1, 0) != -1 {
		t.Error("fresh ports should be absent")
	}
	pm.SetPort(1, 0, 2)
	pm.SetCap(1, 0, 0.5)
	if pm.Port(1, 0) != 2 || pm.Cap(1, 0) != 0.5 {
		t.Error("Set/Get mismatch")
	}
	if row := pm.PortRow(1); len(row) != 2 || row[0] != 2 || row[1] != -1 {
		t.Errorf("PortRow = %v", row)
	}
}

func TestPortMapFromRows(t *testing.T) {
	pm := PortMapFromRows([][]int32{{1, 2}, {}, {0}}, [][]float64{{1, 2}, {}, {3}})
	if pm.N() != 3 || pm.Arity(0) != 2 || pm.Arity(1) != 0 || pm.Arity(2) != 1 {
		t.Fatal("shape mismatch")
	}
	if pm.Port(0, 1) != 2 || pm.Cap(2, 0) != 3 {
		t.Error("values mismatch")
	}
	off, ports, caps := pm.Banks()
	for u := 0; u < pm.N(); u++ {
		for p := 0; p < pm.Arity(u); p++ {
			if a := off[u] + uint32(p); ports[a] != pm.Port(u, p) || caps[a] != pm.Cap(u, p) {
				t.Errorf("bank arc %d disagrees with port %d of node %d", a, p, u)
			}
		}
	}
	if len(off) != pm.N()+1 || int(off[pm.N()]) != len(ports) || len(ports) != len(caps) {
		t.Errorf("bank shapes off=%d ports=%d caps=%d", len(off), len(ports), len(caps))
	}
}

func TestFromSource(t *testing.T) {
	c := ring(t, 4)
	for _, s := range []Source{c, sliceOf(c)} {
		pm, err := FromSource(s, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 4; v++ {
			if pm.Arity(v) != c.Degree(v) {
				t.Fatalf("%T node %d arity %d, degree %d", s, v, pm.Arity(v), c.Degree(v))
			}
			row := c.Row(v)
			for p := range row {
				if pm.Port(v, p) != row[p] || pm.Cap(v, p) != 2.5 {
					t.Fatalf("%T node %d port %d mismatch", s, v, p)
				}
			}
		}
	}
}

func TestGuards(t *testing.T) {
	if err := CheckVertexCount(-1); err == nil {
		t.Error("negative vertex count should error")
	}
	if _, err := Build(-1, func(func(u, v int)) {}); err == nil {
		t.Error("Build with bad n should error")
	}
	if _, err := NewUniformPortMap(1<<20, 1<<13); err == nil {
		t.Error("oversized port map should error")
	}
}

func TestRouteHelpers(t *testing.T) {
	if HammingDistance(0b1010, 0b0110) != 2 {
		t.Error("HammingDistance wrong")
	}
	if HypercubeNextDim(5, 5) != -1 {
		t.Error("at destination should be -1")
	}
	if HypercubeNextDim(0b100, 0b001) != 0 {
		t.Error("lowest differing bit first")
	}
	// 5-ary ring: from digit 0 to 3 the short way is backward.
	dim, dir := TorusNextHop(5, 1, 0, 3)
	if dim != 0 || dir != -1 {
		t.Errorf("TorusNextHop = (%d,%d), want (0,-1)", dim, dir)
	}
	if TorusNeighbor(5, 0, 0, -1) != 4 {
		t.Error("TorusNeighbor wrap wrong")
	}
	// Walking next hops always reaches the destination in the torus
	// distance bound.
	k, dims := 4, 2
	n := k * k
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			cur := src
			for steps := 0; cur != dst; steps++ {
				if steps > dims*k/2 {
					t.Fatalf("route %d->%d too long", src, dst)
				}
				d, dir := TorusNextHop(k, dims, cur, dst)
				cur = TorusNeighbor(k, cur, d, dir)
			}
		}
	}
}
