// Package embed implements the concrete graph embeddings behind
// Corollary 3.4 of the paper: "If a graph can be embedded in an
// ln-dimensional hypercube with constant dilation, then the graph can be
// embedded with constant dilation in an HCN, HFN, complete-CN, SFN, RCC,
// or RHSN."
//
// The package provides the classic constant-dilation hypercube embeddings
// — rings via Gray codes (dilation 1), multi-dimensional meshes/tori via
// products of Gray codes (dilation 1 for power-of-two sides), and complete
// binary trees via the inorder labelling (dilation 2) — and composes them
// with the identity HPN-to-super-IPG embedding of Theorem 3.1 (dilation
// t+1 = 3) to produce verified constant-dilation embeddings into any
// hypercube-nucleus super-IPG.
package embed

import (
	"fmt"

	"ipg/internal/graph"
	"ipg/internal/ipg"
	"ipg/internal/superipg"
)

// Embedding maps guest vertices to host vertices (injectively for the
// embeddings built here).
type Embedding struct {
	GuestName string
	Guest     *graph.Graph
	// Map[u] is the host vertex of guest vertex u.
	Map []int
}

// Validate checks injectivity and host-range.
func (e *Embedding) Validate(hostN int) error {
	if len(e.Map) != e.Guest.N() {
		return fmt.Errorf("embed: map covers %d of %d guest vertices", len(e.Map), e.Guest.N())
	}
	seen := make(map[int]bool, len(e.Map))
	for u, h := range e.Map {
		if h < 0 || h >= hostN {
			return fmt.Errorf("embed: guest %d maps to out-of-range host %d", u, h)
		}
		if seen[h] {
			return fmt.Errorf("embed: host %d used twice", h)
		}
		seen[h] = true
	}
	return nil
}

// Dilation returns the maximum host distance between images of adjacent
// guest vertices, given the host distance oracle.
func (e *Embedding) Dilation(hostDist func(a, b int) int) int {
	max := 0
	e.Guest.Edges(func(u, v int) {
		if d := hostDist(e.Map[u], e.Map[v]); d > max {
			max = d
		}
	})
	return max
}

// GrayCode returns the n-th binary reflected Gray code value.
func GrayCode(n int) int { return n ^ (n >> 1) }

// Ring returns the 2^d-node ring embedded in the d-cube with dilation 1
// via the binary reflected Gray code.
func Ring(d int) *Embedding {
	n := 1 << d
	g := graph.FromStream(n, func(edge func(u, v int)) {
		for i := 0; i < n; i++ {
			edge(i, (i+1)%n)
		}
	})
	m := make([]int, n)
	for i := range m {
		m[i] = GrayCode(i)
	}
	return &Embedding{GuestName: fmt.Sprintf("ring(%d)", n), Guest: g, Map: m}
}

// Mesh returns the 2^a x 2^b mesh (with optional wraparound) embedded in
// the (a+b)-cube with dilation 1 via a product of Gray codes.
func Mesh(a, b int, wrap bool) *Embedding {
	rows, cols := 1<<a, 1<<b
	n := rows * cols
	id := func(r, c int) int { return r*cols + c }
	g := graph.FromStream(n, func(edge func(u, v int)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					edge(id(r, c), id(r, c+1))
				} else if wrap && cols > 2 {
					edge(id(r, c), id(r, 0))
				}
				if r+1 < rows {
					edge(id(r, c), id(r+1, c))
				} else if wrap && rows > 2 {
					edge(id(r, c), id(0, c))
				}
			}
		}
	})
	m := make([]int, n)
	for v := range m {
		m[v] = GrayCode(v/cols)<<b | GrayCode(v%cols)
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	return &Embedding{GuestName: fmt.Sprintf("%s(%dx%d)", kind, rows, cols), Guest: g, Map: m}
}

// CompleteBinaryTree returns the (2^d - 1)-node complete binary tree
// embedded in the d-cube with dilation 2 via the inorder numbering
// (adjacent tree nodes' inorder indices differ by a power of two, or by
// two hypercube steps at the root levels).
func CompleteBinaryTree(d int) *Embedding {
	n := 1<<d - 1
	// Heap indexing 1..n: node h's children are 2h and 2h+1.
	g := graph.FromStream(n, func(edge func(u, v int)) {
		for heap := 1; 2*heap <= n; heap++ {
			edge(heap-1, 2*heap-1)
			edge(heap-1, 2*heap)
		}
	})
	m := make([]int, n)
	// Inorder position of each heap node.
	var inorder func(heap, lo, hi int)
	inorder = func(heap, lo, hi int) {
		mid := (lo + hi) / 2
		m[heap-1] = mid
		if 2*heap <= n {
			inorder(2*heap, lo, mid-1)
			inorder(2*heap+1, mid+1, hi)
		}
	}
	if n > 0 { // d = 0 is the empty tree
		inorder(1, 0, n-1)
	}
	return &Embedding{GuestName: fmt.Sprintf("tree(%d)", n), Guest: g, Map: m}
}

// IntoSuperIPG composes a hypercube embedding with the identity
// label-space embedding of the ln-cube into a hypercube-nucleus super-IPG
// (the HPN(l, Q_n) of Theorem 3.1): host vertex h of the cube maps to the
// super-IPG node whose address is h.  The composition multiplies dilation
// by at most the SDC slowdown (3 for HSN/complete-CN/SFN), per Corollary
// 3.4.
func IntoSuperIPG(e *Embedding, w *superipg.Network, g *ipg.Graph) (*Embedding, error) {
	logN := 0
	for 1<<logN < g.N() {
		logN++
	}
	if 1<<logN != g.N() {
		return nil, fmt.Errorf("embed: super-IPG size %d not a power of two", g.N())
	}
	out := &Embedding{
		GuestName: e.GuestName + "->" + w.Name(),
		Guest:     e.Guest,
		Map:       make([]int, len(e.Map)),
	}
	for u, h := range e.Map {
		lbl, err := w.LabelOf(h)
		if err != nil {
			return nil, err
		}
		id := g.NodeID(lbl)
		if id < 0 {
			return nil, fmt.Errorf("embed: address %d has no node in %s", h, w.Name())
		}
		out.Map[u] = id
	}
	return out, nil
}

// HypercubeDistance is the host distance oracle for cube embeddings.
func HypercubeDistance(a, b int) int {
	d := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		d++
	}
	return d
}

// MeasureDilation computes the dilation of an embedding into a
// materialized graph by multi-source BFS from every image vertex that has
// guest edges (exact, O(guest-N * (host-N + host-M))).
func MeasureDilation(e *Embedding, host *graph.Graph) (int, error) {
	if err := e.Validate(host.N()); err != nil {
		return 0, err
	}
	max := 0
	// BFS once per distinct source image.
	distCache := map[int][]int32{}
	var lastErr error
	e.Guest.Edges(func(u, v int) {
		src := e.Map[u]
		dist, ok := distCache[src]
		if !ok {
			dist = host.BFS(src)
			distCache[src] = dist
		}
		d := dist[e.Map[v]]
		if d < 0 {
			lastErr = fmt.Errorf("embed: images %d,%d disconnected", e.Map[u], e.Map[v])
			return
		}
		if int(d) > max {
			max = int(d)
		}
	})
	return max, lastErr
}
