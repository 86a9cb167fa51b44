// Package graph provides a compact undirected-graph representation and the
// structural algorithms used throughout the reproduction: breadth-first
// search, distance statistics, degree statistics, connectivity, Cartesian
// products, and bisection search.
//
// A Graph is built once: FromStream streams its edges straight into a
// single CSR arena (internal/topo), and the edges never change after
// that.  Every algorithm below iterates the flat arena through the topo
// kernels, and Graph satisfies topo.Source, so Distances (the one
// all-sources distance sweep) accepts it directly.
package graph

import (
	"fmt"

	"ipg/internal/topo"
)

// Graph is a simple undirected graph on vertices 0..N-1.  Self-loops are
// not stored (IPG generator actions that fix a node produce no edge);
// parallel edges are collapsed.  Neighbor lists are sorted ascending.
type Graph struct {
	n   int
	csr *topo.CSR

	// reps lists one vertex per orbit of an automorphism group the
	// construction proved (see MarkOrbits); nil when none was proven.
	reps []int32
}

// MarkOrbits records orbit representatives proven by the graph's
// construction: an automorphism group splits the vertices into
// len(reps) orbits of n/len(reps) vertices each, and reps holds one
// vertex of every orbit.  Automorphisms preserve distances, so every
// vertex has the eccentricity and distance sum of its orbit's
// representative, and Distances sweeps only reps.  Only builders whose
// construction proves such a group may call this: the super-IPG builder
// (superipg.Network.Undirected) marks one node per cluster, and
// MarkVertexTransitive is the one-orbit case.  A Graph's edges never
// change after construction, so the mark cannot go stale.  MarkOrbits
// panics if len(reps) does not divide n or an id is out of range; the
// slice is retained and must not be modified.
func (g *Graph) MarkOrbits(reps []int32) {
	if len(reps) == 0 || g.n%len(reps) != 0 {
		panic(fmt.Sprintf("graph.MarkOrbits: %d representatives do not split %d vertices into equal orbits", len(reps), g.n))
	}
	//lint:ignore ctxflow one range check per representative, once per marked graph; the builder that found them already paid a pass over every label
	for _, r := range reps {
		if r < 0 || int(r) >= g.n {
			panic(fmt.Sprintf("graph.MarkOrbits: representative %d out of range (n=%d)", r, g.n))
		}
	}
	g.reps = reps
}

// MarkVertexTransitive records that the graph is vertex-transitive — its
// automorphism group acts transitively on vertices, so every vertex has
// the same eccentricity and distance multiset: one orbit, represented by
// vertex 0.  Only family builders whose construction proves transitivity
// (the Cayley families: hypercubes, tori, generalized hypercubes, CCC,
// wrapped butterflies, and their Cartesian products) may call this;
// Distances then collapses the all-sources sweep to a single BFS.
func (g *Graph) MarkVertexTransitive() { g.reps = oneOrbit }

// oneOrbit is the representative list of a vertex-transitive graph.
var oneOrbit = []int32{0}

// VertexTransitive reports whether the graph was marked with a single
// orbit (the topo.Symmetric capability).
func (g *Graph) VertexTransitive() bool { return len(g.reps) == 1 }

// Orbits returns the orbit representatives recorded by MarkOrbits, or
// nil if the graph is unmarked.  The slice is shared and must not be
// modified.
func (g *Graph) Orbits() []int32 { return g.reps }

// MaxVertices is the largest vertex count the int32 adjacency storage can
// address.  Super-IPG configurations beyond this must be sharded before
// materialization; silently wrapping ids would corrupt every metric.
const MaxVertices = topo.MaxVertices

// CheckVertexCount reports whether n vertices fit the int32 adjacency
// representation, as an error suitable for propagation.
func CheckVertexCount(n int) error {
	if n < 0 || n > MaxVertices {
		return fmt.Errorf("graph: vertex count %d outside [0, %d]", n, MaxVertices)
	}
	return nil
}

// FromStreamChecked builds a graph on n vertices directly in CSR form from
// a replayable edge stream (see topo.Build): stream is invoked twice and
// must emit the same edge multiset both times.  Self-loops are dropped and
// duplicates collapse, so emitting each edge from both endpoints is fine.
func FromStreamChecked(n int, stream func(edge func(u, v int))) (*Graph, error) {
	if err := CheckVertexCount(n); err != nil {
		return nil, err
	}
	csr, err := topo.Build(n, stream)
	if err != nil {
		return nil, err
	}
	return &Graph{n: n, csr: csr}, nil
}

// FromStream is FromStreamChecked that panics on error, for builders whose
// parameters are already bounds-checked.
func FromStream(n int, stream func(edge func(u, v int))) *Graph {
	g, err := FromStreamChecked(n, stream)
	if err != nil {
		panic("graph.FromStream: " + err.Error())
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.csr.Arcs() / 2 }

// HasEdge reports whether {u,v} is an edge.  Vertices outside [0, N) have
// no edges.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	return g.csr.HasArc(u, v)
}

// NeighborsInto implements topo.Source: it appends the sorted neighbors
// of u to buf[:0] and returns it.  Passing a buffer with cap >=
// DegreeBound() makes the call allocation-free.
func (g *Graph) NeighborsInto(u int, buf []int32) []int32 {
	return append(buf[:0], g.csr.Row(u)...)
}

// DegreeBound implements topo.Source: the maximum degree.
func (g *Graph) DegreeBound() int { return g.csr.DegreeBound() }

// CSR returns the adjacency arena.  The result is owned by the graph and
// must not be modified.
func (g *Graph) CSR() *topo.CSR { return g.csr }

// MemoryFootprint returns the adjacency storage size in bytes (offsets
// plus arena), the quantity the representation benchmarks report.
func (g *Graph) MemoryFootprint() int64 { return g.csr.ByteSize() }

// Edges calls f for every edge {u,v} with u < v.
func (g *Graph) Edges(f func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.csr.Row(u) {
			if int(v) > u {
				f(u, int(v))
			}
		}
	}
}

// DegreeStats returns the minimum, maximum, and average vertex degree.
func (g *Graph) DegreeStats() (min, max int, avg float64) {
	if g.n == 0 {
		return 0, 0, 0
	}
	min = int(^uint(0) >> 1)
	total := 0
	for u := 0; u < g.n; u++ {
		d := g.csr.Degree(u)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		total += d
	}
	return min, max, float64(total) / float64(g.n)
}

// IsRegular reports whether all vertices have the same degree, and that
// degree.
func (g *Graph) IsRegular() (bool, int) {
	min, max, _ := g.DegreeStats()
	return min == max, max
}

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	topo.BFSSourceInto(g.csr, src, dist, make([]int32, 0, g.n), nil)
	return dist
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	return g.n <= 1 || g.Eccentricity(0) >= 0
}

// Eccentricity returns the maximum finite distance from src, or -1 if some
// vertex is unreachable.
func (g *Graph) Eccentricity(src int) int {
	ecc, _, _ := topo.BFSSourceInto(g.csr, src, make([]int32, g.n), make([]int32, 0, g.n), nil)
	return int(ecc)
}

// Diameter computes the exact diameter by running BFS from every vertex.
// It returns -1 for disconnected graphs.  Cost is O(N*(N+M)).
func (g *Graph) Diameter() int {
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc, _, _ := topo.BFSSourceInto(g.csr, u, dist, queue, nil)
		if ecc < 0 {
			return -1
		}
		if int(ecc) > diam {
			diam = int(ecc)
		}
	}
	return diam
}

// AverageDistance returns the mean distance over all ordered vertex pairs
// including (u,u) pairs, matching the paper's convention ("the average of
// the distances between a node X and all the network nodes (including node
// X itself)").  It returns -1 for disconnected graphs.
func (g *Graph) AverageDistance() float64 {
	n := g.n
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var total int64
	for u := 0; u < n; u++ {
		ecc, sum, _ := topo.BFSSourceInto(g.csr, u, dist, queue, nil)
		if ecc < 0 {
			return -1
		}
		total += sum
	}
	return float64(total) / float64(n) / float64(n)
}

// CartesianProduct returns the Cartesian product g x h: vertices are pairs
// (u,v) encoded as u*h.N()+v; (u,v)~(u',v') iff (u=u' and v~v') or
// (v=v' and u~u').
func CartesianProduct(g, h *Graph) *Graph {
	gc, hc := g.csr, h.csr
	nh := h.N()
	out := FromStream(g.N()*nh, func(edge func(u, v int)) {
		//lint:ignore ctxflow one pass over the product's arcs, whose vertex count FromStream bounds by CheckVertexCount, once per built graph
		for u := 0; u < g.N(); u++ {
			for v := 0; v < nh; v++ {
				id := u*nh + v
				for _, w := range hc.Row(v) {
					edge(id, u*nh+int(w))
				}
				for _, w := range gc.Row(u) {
					edge(id, int(w)*nh+v)
				}
			}
		}
	})
	// The product of vertex-transitive graphs is vertex-transitive: the
	// automorphism groups act independently on the coordinates.
	if g.VertexTransitive() && h.VertexTransitive() {
		out.MarkVertexTransitive()
	}
	return out
}

// Power returns the p-th Cartesian power of g (the homogeneous product
// network HPN(p, g) of Efe & Fernandez).  Power(0) is a single vertex.
func Power(g *Graph, p int) *Graph {
	out := FromStream(1, func(func(u, v int)) {})
	out.MarkVertexTransitive() // K1 is trivially vertex-transitive
	for i := 0; i < p; i++ {
		out = CartesianProduct(out, g)
	}
	return out
}

// Equal reports whether g and h have identical vertex sets and edge sets
// (labels matter; this is not isomorphism).
func Equal(g, h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	return topo.Equal(g.csr, h.csr)
}
