package topo

import "fmt"

//lint:file-ignore ctxflow port-map constructors are one-shot O(arcs) fills bounded by maxArcs (math.MaxUint32), run under serve's build timeout
//lint:file-ignore indextrunc port indices are < Arity(u) and all offsets are bounded to maxArcs (math.MaxUint32) at construction

// PortMap is the port-labelled topology of the packet simulator: for each
// node a fixed bank of ports, where ports[off[u]+p] is the neighbor behind
// port p of u (-1 = absent port) and caps[off[u]+p] is the directed link's
// capacity in packets per round.  Both banks live in single flat arrays —
// the simulator's third copy of the adjacency in the old representation is
// now a view over this one.
type PortMap struct {
	off   []uint32
	ports []int32
	caps  []float64
}

// NewUniformPortMap returns a PortMap with arity ports per node, all
// absent (-1) with zero capacity, for the builders to fill in.
func NewUniformPortMap(n, arity int) (*PortMap, error) {
	if err := CheckVertexCount(n); err != nil {
		return nil, err
	}
	if arity < 0 || (arity > 0 && uint64(n)*uint64(arity) > maxArcs) {
		return nil, fmt.Errorf("topo: %d nodes x %d ports overflow the uint32 offset representation", n, arity)
	}
	pm := &PortMap{
		off:   make([]uint32, n+1),
		ports: make([]int32, n*arity),
		caps:  make([]float64, n*arity),
	}
	for v := 0; v <= n; v++ {
		pm.off[v] = uint32(v * arity)
	}
	for i := range pm.ports {
		pm.ports[i] = -1
	}
	return pm, nil
}

// FromSource returns the PortMap of any adjacency source with port p of
// u = u's p-th canonical neighbor and every link at the given capacity.
// This is how the packet simulator consumes implicit (codec-backed)
// topologies: the per-node queue state of a simulation is O(N) regardless
// of representation, so materializing the port banks here costs nothing
// asymptotically, and a CSR and an implicit codec of the same family get
// the same port numbering because both emit the canonical sorted rows.
func FromSource(s Source, capacity float64) (*PortMap, error) {
	n := s.N()
	off := make([]uint32, n+1)
	buf := make([]int32, 0, s.DegreeBound())
	var total uint64
	for v := 0; v < n; v++ {
		buf = s.NeighborsInto(v, buf)
		total += uint64(len(buf))
		if total > maxArcs {
			return nil, fmt.Errorf("topo: source arc count overflows the uint32 offset representation")
		}
		off[v+1] = uint32(total)
	}
	pm := &PortMap{off: off, ports: make([]int32, total), caps: make([]float64, total)}
	for v := 0; v < n; v++ {
		buf = s.NeighborsInto(v, buf)
		copy(pm.ports[off[v]:off[v+1]], buf)
	}
	for i := range pm.caps {
		pm.caps[i] = capacity
	}
	return pm, nil
}

// PortMapFromRows converts per-node port/capacity rows into the flat
// representation; a convenience for tests and small hand-built networks.
// It panics on mismatched row shapes.
func PortMapFromRows(ports [][]int32, caps [][]float64) *PortMap {
	if len(ports) != len(caps) {
		panic("topo.PortMapFromRows: ports/caps length mismatch")
	}
	n := len(ports)
	off := make([]uint32, n+1)
	var total uint64
	for v := 0; v < n; v++ {
		if len(ports[v]) != len(caps[v]) {
			panic(fmt.Sprintf("topo.PortMapFromRows: node %d port/cap mismatch", v))
		}
		total += uint64(len(ports[v]))
		if total > maxArcs {
			panic("topo.PortMapFromRows: arc count overflows the uint32 offset representation")
		}
		off[v+1] = uint32(total)
	}
	pm := &PortMap{off: off, ports: make([]int32, total), caps: make([]float64, total)}
	for v := 0; v < n; v++ {
		copy(pm.ports[off[v]:off[v+1]], ports[v])
		copy(pm.caps[off[v]:off[v+1]], caps[v])
	}
	return pm
}

// N returns the node count.
func (pm *PortMap) N() int { return len(pm.off) - 1 }

// Arity returns the number of ports at u.
func (pm *PortMap) Arity(u int) int { return int(pm.off[u+1] - pm.off[u]) }

// Port returns the neighbor behind port p of u, or -1 if the port is
// absent.
func (pm *PortMap) Port(u, p int) int32 { return pm.ports[pm.off[u]+uint32(p)] }

// Cap returns the capacity of the directed link at (u, p).
func (pm *PortMap) Cap(u, p int) float64 { return pm.caps[pm.off[u]+uint32(p)] }

// SetPort installs neighbor nb behind port p of u.
func (pm *PortMap) SetPort(u, p int, nb int32) { pm.ports[pm.off[u]+uint32(p)] = nb }

// SetCap sets the capacity of the directed link at (u, p).
func (pm *PortMap) SetCap(u, p int, c float64) { pm.caps[pm.off[u]+uint32(p)] = c }

// PortRow returns u's port bank as a zero-copy view.
func (pm *PortMap) PortRow(u int) []int32 { return pm.ports[pm.off[u]:pm.off[u+1]] }

// CapRow returns u's capacity bank as a zero-copy view.
func (pm *PortMap) CapRow(u int) []float64 { return pm.caps[pm.off[u]:pm.off[u+1]] }

// Banks returns the flat banks behind the row views, for loops that index
// by arc: port p of u is arc off[u]+p, whose neighbor is ports[off[u]+p]
// and capacity caps[off[u]+p].  The slices are the map's own storage:
// read them, never modify them.
func (pm *PortMap) Banks() (off []uint32, ports []int32, caps []float64) {
	return pm.off, pm.ports, pm.caps
}
