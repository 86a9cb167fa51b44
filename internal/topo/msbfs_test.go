package topo

import (
	"math/rand"
	"testing"
)

// randomCSR builds a random undirected graph: a spanning structure when
// connected is true (plus noise edges), or two disjoint halves when not.
// Build streams the edge set twice (count-then-fill), so the edges are
// drawn up front and the stream closure just replays them.
func randomCSR(t *testing.T, r *rand.Rand, n int, connected bool) *CSR {
	t.Helper()
	var edges [][2]int
	if connected {
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{v, r.Intn(v)})
		}
	} else {
		// Two halves, each internally a path: every source misses the
		// other half, so ecc must be -1 everywhere.
		half := n / 2
		for v := 1; v < half; v++ {
			edges = append(edges, [2]int{v, v - 1})
		}
		for v := half + 1; v < n; v++ {
			edges = append(edges, [2]int{v, v - 1})
		}
	}
	for e := 0; e < n/2; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if !connected {
			// Keep noise edges within one half.
			half := n / 2
			if (u < half) != (v < half) {
				continue
			}
		}
		edges = append(edges, [2]int{u, v})
	}
	c, err := Build(n, func(edge func(u, v int)) {
		for _, e := range edges {
			edge(e[0], e[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMSBFSMatchesScalar runs the batched kernel over every vertex of s
// in batches of width batch and cross-checks ecc, sum, and the full
// distance vectors against the scalar kernel on c, the arena holding the
// same rows, bit for bit.  A sliceTopo s compares the kernels'
// NeighborsInto arm against the arena arm.
func checkMSBFSMatchesScalar(t *testing.T, s Source, c *CSR, batch int) {
	t.Helper()
	n := c.N()
	scalarDist := make([]int32, n)
	queue := make([]int32, 0, n)
	sc := NewMSBFSScratch(n)
	ecc := make([]int32, batch)
	sum := make([]int64, batch)
	dist := make([]int16, batch*n)
	srcs := make([]int32, 0, batch)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		srcs = srcs[:0]
		for v := lo; v < hi; v++ {
			srcs = append(srcs, int32(v))
		}
		MSBFSSourceInto(s, srcs, sc, ecc, sum, dist, nil)
		for i, src := range srcs {
			wantEcc, wantSum, _ := BFSSourceInto(c, int(src), scalarDist, queue, nil)
			if ecc[i] != wantEcc || sum[i] != wantSum {
				t.Fatalf("%T src %d (batch %d): msbfs ecc=%d sum=%d, scalar ecc=%d sum=%d",
					s, src, batch, ecc[i], sum[i], wantEcc, wantSum)
			}
			for v := 0; v < n; v++ {
				if int32(dist[i*n+v]) != scalarDist[v] {
					t.Fatalf("src %d: dist[%d] = %d, scalar %d", src, v, dist[i*n+v], scalarDist[v])
				}
			}
		}
	}
}

func TestMSBFSMatchesScalarRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 7, 63, 64, 65, 200, 513} {
		for _, connected := range []bool{true, false} {
			if !connected && n < 4 {
				continue
			}
			c := randomCSR(t, r, n, connected)
			for _, s := range []Source{c, sliceOf(c)} {
				for _, batch := range []int{1, 3, 64} {
					if batch > n && batch != 64 {
						continue
					}
					checkMSBFSMatchesScalar(t, s, c, batch)
				}
			}
		}
	}
}

// TestMSBFSDenseLevels forces the bottom-up branch: a star graph reaches
// every vertex at level 1, so the frontier is instantly dense.
func TestMSBFSDenseLevels(t *testing.T) {
	n := 400
	c, err := Build(n, func(edge func(u, v int)) {
		for v := 1; v < n; v++ {
			edge(0, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMSBFSMatchesScalar(t, c, c, 64)
	checkMSBFSMatchesScalar(t, sliceOf(c), c, 64)
}

// TestMSBFSDuplicateSources allows two batch lanes to start at the same
// vertex; both must produce that vertex's scalar result.
func TestMSBFSDuplicateSources(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := randomCSR(t, r, 50, true)
	s := NewMSBFSScratch(c.N())
	srcs := []int32{5, 5, 17}
	ecc := make([]int32, len(srcs))
	sum := make([]int64, len(srcs))
	MSBFSSourceInto(c, srcs, s, ecc, sum, nil, nil)
	dist := make([]int32, c.N())
	queue := make([]int32, 0, c.N())
	for i, src := range srcs {
		wantEcc, wantSum, _ := BFSSourceInto(c, int(src), dist, queue, nil)
		if ecc[i] != wantEcc || sum[i] != wantSum {
			t.Fatalf("lane %d (src %d): got ecc=%d sum=%d, want ecc=%d sum=%d",
				i, src, ecc[i], sum[i], wantEcc, wantSum)
		}
	}
}

// TestMSBFSScratchReuse reuses one scratch across graphs of different
// sizes, the serving-pool pattern.
func TestMSBFSScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := NewMSBFSScratch(8)
	for _, n := range []int{8, 300, 12} {
		c := randomCSR(t, r, n, true)
		ecc := make([]int32, 1)
		sum := make([]int64, 1)
		MSBFSSourceInto(c, []int32{0}, s, ecc, sum, nil, nil)
		dist := make([]int32, n)
		wantEcc, wantSum, _ := BFSSourceInto(c, 0, dist, make([]int32, 0, n), nil)
		if ecc[0] != wantEcc || sum[0] != wantSum {
			t.Fatalf("n=%d: got ecc=%d sum=%d, want ecc=%d sum=%d", n, ecc[0], sum[0], wantEcc, wantSum)
		}
	}
}

// TestBFSGenericMatchesCSR: the scalar kernel's NeighborsInto arm must
// report distances and disconnected components exactly like the arena arm.
func TestBFSGenericMatchesCSR(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, connected := range []bool{true, false} {
		c := randomCSR(t, r, 40, connected)
		st := sliceOf(c)
		n := c.N()
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		gdist := make([]int32, n)
		for src := 0; src < n; src++ {
			wantEcc, wantSum, _ := BFSSourceInto(c, src, dist, queue, nil)
			gotEcc, gotSum, _ := BFSSourceInto(st, src, gdist, queue, nil)
			if gotEcc != wantEcc || gotSum != wantSum {
				t.Fatalf("src %d: generic ecc=%d sum=%d, CSR ecc=%d sum=%d",
					src, gotEcc, gotSum, wantEcc, wantSum)
			}
			for v := range gdist {
				if gdist[v] != dist[v] {
					t.Fatalf("src %d: generic dist[%d]=%d, CSR %d", src, v, gdist[v], dist[v])
				}
			}
		}
	}
}
