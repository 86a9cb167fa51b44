package topo

//lint:file-ignore ctxflow the sweep kernels are deliberately ctx-free: one call is a single bounded traversal (or one 64-source batch), and callers (graph.Distances, fault.Analyze) poll ctx between calls, keeping cancellation latency to one kernel invocation; ShortestPath, one call per request, polls ctx once per level

import (
	"context"
	"errors"
	"math"
	"math/bits"
)

// This file holds the repository's traversal kernels: a scalar BFS and a
// bit-parallel 64-source BFS (MSBFS), through which every distance
// computation runs (the graph metrics, the directed cluster quotient in
// internal/superipg, the degraded-network sweep in internal/fault), and
// ShortestPath, the bidirectional search behind serve's /v1/route.
//
// All three read rows from any Source.  A *CSR hands over its arena rows
// without copying; any other source (a codec-backed Implicit, a
// fault.DegradedView) goes through NeighborsInto with a reused neighbor
// buffer.  Since every Source emits the same canonical rows, a traversal
// is bit-identical on either.  The scalar kernel and ShortestPath pick
// the row reader per vertex.  MSBFS scans far more rows per call, so its
// arena loops are written out in the kernel and NeighborsInto rows go
// through one helper per level (a per-vertex branch, or arena helpers,
// cost 5-20% there).
//
// The two sweep kernels also take optional fault masks: a vertex bitset
// (one bit per vertex) and an arc bitset (one bit per arena index, so it
// needs a *CSR).  A masked traversal is the ordinary one on the induced
// alive subgraph; nil masks hide nothing.  The arc loops keep a tight
// variant for the unmasked case, because per-arc nil checks in the hot
// loop cost 1.1-1.9x on the all-sources sweeps.

// NewBitset returns a bitset able to hold n bits, all zero.
func NewBitset(n int) []uint64 { return make([]uint64, (n+63)/64) }

// SetBit sets bit i of bs.
func SetBit(bs []uint64, i int) { bs[i>>6] |= 1 << (uint(i) & 63) }

// Bit reports bit i of bs, treating a nil bitset as all-zero.
func Bit(bs []uint64, i int) bool {
	return bs != nil && bs[i>>6]&(1<<(uint(i)&63)) != 0
}

// arenaOf returns s as a *CSR when it is one, so the kernels can read
// arena rows in place.  An arc mask indexes that arena, so it is refused
// on any other source.
func arenaOf(s Source, adead []uint64) *CSR {
	c, _ := s.(*CSR)
	if c == nil && adead != nil {
		panic("topo: arc masks need a *CSR source")
	}
	return c
}

// BFSSourceInto runs BFS from src over any Source into caller-owned
// buffers: dist (length s.N(), fully overwritten; -1 marks unreachable),
// queue (scratch; cap >= s.N() makes the call allocation-free) and nbuf
// (neighbor scratch for non-arena sources; cap >= s.DegreeBound() avoids
// reallocation, and the possibly grown buffer is returned for reuse).  It
// returns the eccentricity of src and the sum of finite distances; ecc is
// -1 when some vertex is unreachable (the sum then covers the reached
// vertices only).  It works on directed sources too.
func BFSSourceInto(s Source, src int, dist, queue, nbuf []int32) (ecc int32, sum int64, _ []int32) {
	ecc, sum, reached, nbuf := bfs(s, src, nil, nil, dist, queue, nbuf)
	if int(reached) != s.N() {
		ecc = -1
	}
	return ecc, sum, nbuf
}

// bfs is the scalar kernel: BFSSourceInto that skips vertices set in vdead
// and arcs set in adead (either may be nil).  src must be alive.  Masked
// topologies are routinely disconnected, so instead of ecc = -1 it returns
// the reached-vertex count (src included) and leaves ecc as the
// eccentricity within src's component.
func bfs(s Source, src int, vdead, adead []uint64, dist, queue, nbuf []int32) (ecc int32, sum int64, reached int32, _ []int32) {
	c := arenaOf(s, adead)
	masked := vdead != nil || adead != nil
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	//lint:ignore indextrunc src < s.N() <= MaxVertices (math.MaxInt32)
	queue = append(queue[:0], int32(src))
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		ecc = du // the queue holds vertices in nondecreasing distance
		sum += int64(du)
		var row []int32
		base := 0
		if c != nil {
			base = int(c.off[u])
			row = c.arena[base:c.off[u+1]]
		} else {
			nbuf = s.NeighborsInto(int(u), nbuf)
			row = nbuf
		}
		if !masked {
			for _, v := range row {
				if dist[v] < 0 {
					dist[v] = du + 1
					queue = append(queue, v)
				}
			}
			continue
		}
		for j, v := range row {
			if dist[v] >= 0 || Bit(adead, base+j) || Bit(vdead, int(v)) {
				continue
			}
			dist[v] = du + 1
			queue = append(queue, v)
		}
	}
	//lint:ignore indextrunc len(queue) <= s.N() <= MaxVertices (math.MaxInt32)
	return ecc, sum, int32(len(queue)), nbuf
}

// ErrNoPath is ShortestPath's answer when dst is not reachable from src.
var ErrNoPath = errors.New("topo: no path")

// meetLabel marks a vertex where the two balls of ShortestPath meet; it
// is below every backward label -(j+1), j < MaxVertices.
const meetLabel = math.MinInt32

// ShortestPath returns one shortest path src -> dst over a symmetric
// Source: exactly the path a full BFS from src followed by a walk back
// from dst returns, where each step takes the first neighbor in row order
// that is one hop closer to src.  It costs the two balls of a
// bidirectional search instead of the whole graph, plus one O(N) label
// reset.  sc must be sized for s.N() (GetScratch).
//
// The search grows a ball from src and one from dst, expanding the
// smaller frontier one full level at a time, and checks ctx before each
// level.  It stops after the first level at which the balls meet: with
// radii a and b the distance is a+b, and the meeting layer M is every
// vertex at distance a from src and b from dst.  sc.Dist holds one signed
// label per vertex: 0 unseen, l+1 at forward level l, -(j+1) at backward
// layer j, meetLabel on M.  The forward frontier grows at the front of
// sc.Queue and the backward one at the back.
//
// The walk then decides each step of the full-BFS walk from these labels
// alone.  Below M the forward labels are the BFS distances.  Nearer dst,
// a layer-(j+1) neighbor of the layer-j vertex is one hop closer to src
// exactly when it lies on a shortest path, that is, when it leads down
// the backward layers to M.  A depth-first search from dst over rows in
// order finds the first such neighbor at every step, and relabels 0 each
// vertex it leaves without reaching M, so no later step tries it again:
// every backward vertex is entered at most once.
//
// ctx errors are returned as is, and ErrNoPath when a ball runs out
// before they meet.  Once sc.Nbuf holds a row, the returned path is the
// only allocation.
func ShortestPath(ctx context.Context, s Source, src, dst int, sc *Scratch) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	c := arenaOf(s, nil)
	n := s.N()
	dist, q := sc.Dist[:n], sc.Queue[:n]
	nbuf := sc.NeighborBuf(s.DegreeBound())
	defer func() { sc.Nbuf = nbuf }()
	clear(dist)
	dist[src], dist[dst] = 1, -1
	//lint:ignore indextrunc src, dst < s.N() <= MaxVertices (math.MaxInt32)
	q[0], q[n-1] = int32(src), int32(dst)
	fLo, fHi, bLo, bHi := 0, 1, n-1, n // frontiers q[fLo:fHi] and q[bLo:bHi]
	var a, b int32                     // radii of the two balls
	var row []int32
	for met := false; !met; {
		if fLo == fHi || bLo == bHi {
			return nil, ErrNoPath // one ball is a whole component
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Grow the ball with the smaller frontier by one level: unseen
		// neighbors get label, and a neighbor carrying the other ball's
		// frontier label joins M.
		forward := fHi-fLo <= bHi-bLo
		grow, label, other := q[fLo:fHi], a+2, -(b + 1)
		if !forward {
			grow, label, other = q[bLo:bHi], -(b + 2), a+1
		}
		lo, hi := fHi, bLo // the free queue space between the balls
		for _, u := range grow {
			row, nbuf = readRow(s, c, int(u), nbuf)
			for _, v := range row {
				switch dist[v] {
				case 0:
					dist[v] = label
					if forward {
						q[lo] = v
						lo++
					} else {
						hi--
						q[hi] = v
					}
				case other:
					dist[v] = meetLabel
					met = true
				}
			}
		}
		if forward {
			a++
			fLo, fHi = fHi, lo
		} else {
			b++
			bLo, bHi = hi, bLo
		}
	}

	// Walk back from dst: depth first down the backward layers to M, with
	// p[b-k] the vertex at layer k and r[k] where its row scan resumes
	// (the queue is free now), then down the forward labels to src.
	path := make([]int, a+b+1)
	p, r := path[a:], q[:b+1]
	p[b], r[0] = dst, 0
	for k := int32(0); k < b; {
		row, nbuf = readRow(s, c, p[b-k], nbuf)
		want := -(k + 2)
		if k+1 == b {
			want = meetLabel
		}
		j := r[k]
		for int(j) < len(row) && dist[row[j]] != want {
			j++
		}
		if int(j) == len(row) {
			dist[p[b-k]] = 0 // a dead end: no vertex of M below it
			k--
			continue
		}
		r[k] = j + 1
		k++
		p[b-k], r[k] = int(row[j]), 0
	}
	for i := a; i > 0; i-- {
		row, nbuf = readRow(s, c, path[i], nbuf)
		for _, v := range row {
			if dist[v] == i { // forward level i-1
				path[i-1] = int(v)
				break
			}
		}
	}
	return path, nil
}

// readRow returns u's neighbors: its arena row when c is s's CSR, else
// NeighborsInto into nbuf, which it returns (possibly grown) as buf.
func readRow(s Source, c *CSR, u int, nbuf []int32) (row, buf []int32) {
	if c != nil {
		return c.arena[c.off[u]:c.off[u+1]], nbuf
	}
	nbuf = s.NeighborsInto(u, nbuf)
	return nbuf, nbuf
}

// The MSBFS kernel advances up to 64 BFS traversals together, one uint64
// visited/frontier word per vertex, so every row is scanned once per
// *batch* instead of once per source.  All-sources sweeps (diameter,
// average distance, the intercluster quotient metrics, the degraded
// census) are the dominant cost of the paper's headline tables; batching
// cuts their row traffic by up to 64x and replaces the per-arc branch of
// the scalar kernel with a handful of word operations.
//
// It is level-synchronous with a direction-optimizing switch: a sparse
// frontier is expanded top-down (push: scan the frontier vertices' rows),
// a dense one bottom-up (pull: scan the rows of still-unfinished vertices
// and gather frontier bits), following Beamer et al.'s
// direction-optimizing BFS adapted to the bit-parallel setting.  The pull
// step reads a vertex's row as its in-neighbors, so MSBFS requires
// symmetric adjacency, and a failed undirected edge must have both arc
// directions masked.  Directed sources must use the scalar kernel.

// msbfsBatch is the source-batch width: one bit of a uint64 per source.
const msbfsBatch = 64

// msbfsDenseCut is the frontier density (as a fraction 1/msbfsDenseCut of
// the vertex count) above which a level switches to bottom-up expansion.
const msbfsDenseCut = 8

// MSBFSScratch is the reusable state of one MSBFS call: three uint64
// words per vertex plus the frontier vertex lists.  A scratch may be
// reused across calls and topologies of any size (buffers grow on
// demand); it must not be shared between concurrent calls.
type MSBFSScratch struct {
	visited  []uint64 // visited[v] bit i: source i has reached v
	frontier []uint64 // current-level bits per vertex
	next     []uint64 // gathered bits for the level under construction
	cur      []int32  // vertices with nonzero frontier word
	touched  []int32  // vertices with nonzero next word this level
}

// NewMSBFSScratch returns a scratch sized for n vertices.
func NewMSBFSScratch(n int) *MSBFSScratch {
	s := &MSBFSScratch{}
	s.ensure(n)
	return s
}

// ensure sizes the buffers for n vertices, reusing capacity.
func (s *MSBFSScratch) ensure(n int) {
	if cap(s.visited) < n {
		s.visited = make([]uint64, n)
		s.frontier = make([]uint64, n)
		s.next = make([]uint64, n)
	}
	s.visited = s.visited[:n]
	s.frontier = s.frontier[:n]
	s.next = s.next[:n]
	s.cur = s.cur[:0]
	s.touched = s.touched[:0]
}

// MSBFSSourceInto runs BFS from up to 64 sources simultaneously over a
// symmetric Source.  Per source i it writes ecc[i] and sum[i] under the
// BFSSourceInto contract: ecc[i] is the eccentricity of sources[i], or -1
// when some vertex is unreachable (sum[i] then covers the reached
// vertices only).  If dist is non-nil it must have length
// len(sources)*s.N() and receives the full distance vector of source i in
// dist[i*n:(i+1)*n], -1 marking unreachable vertices.  That is the
// destination-major int16 row layout of netsim's routing tables, which
// fill 64 rows per call straight into their table; int16 distances need
// s.N() <= 32768.  nbuf is neighbor scratch for non-arena sources,
// returned possibly grown.  The call is allocation-free once the scratch
// has grown to s.N() vertices.
func MSBFSSourceInto(s Source, sources []int32, sc *MSBFSScratch, ecc []int32, sum []int64, dist []int16, nbuf []int32) []int32 {
	if dist != nil && s.N() > math.MaxInt16+1 {
		panic("topo: MSBFS int16 dist needs N <= 32768")
	}
	var reached [msbfsBatch]int32
	nbuf = msbfs(s, sources, sc, nil, nil, ecc, sum, reached[:], dist, nbuf)
	for i := range sources {
		if int(reached[i]) != s.N() {
			ecc[i] = -1
		}
	}
	return nbuf
}

// MSBFSMaskedSourceInto is MSBFSSourceInto on the subgraph that survives
// the vertex mask vdead and the arc mask adead (either may be nil; adead
// indexes arena arcs and needs a *CSR source).  All sources must be
// alive.  Like the scalar kernel under masks it reports disconnection
// through reached[i] (vertices reached, the source included) and leaves
// ecc[i] as the eccentricity within the source's component; sum[i] is the
// sum of distances to reached vertices.  There is no dist output: the
// fault layer consumes only the census quantities.
func MSBFSMaskedSourceInto(s Source, sources []int32, sc *MSBFSScratch, vdead, adead []uint64, ecc []int32, sum []int64, reached []int32, nbuf []int32) []int32 {
	return msbfs(s, sources, sc, vdead, adead, ecc, sum, reached, nil, nbuf)
}

// msbfs is the MSBFS kernel behind both exported entry points.
func msbfs(s Source, sources []int32, sc *MSBFSScratch, vdead, adead []uint64, ecc []int32, sum []int64, reached []int32, dist []int16, nbuf []int32) []int32 {
	c := arenaOf(s, adead)
	n := s.N()
	ns := len(sources)
	if ns == 0 || ns > msbfsBatch {
		panic("topo: MSBFS needs 1..64 sources")
	}
	if len(ecc) < ns || len(sum) < ns || len(reached) < ns {
		panic("topo: MSBFS ecc/sum/reached shorter than sources")
	}
	if dist != nil && len(dist) < ns*n {
		panic("topo: MSBFS dist shorter than len(sources)*N")
	}
	sc.ensure(n)
	visited, frontier, next := sc.visited, sc.frontier, sc.next
	clear(visited)
	clear(frontier)
	clear(next)
	if dist != nil {
		for i := range dist[:ns*n] {
			dist[i] = -1
		}
	}
	full := ^uint64(0) >> (msbfsBatch - ns)
	for i, src := range sources {
		if Bit(vdead, int(src)) {
			panic("topo: MSBFS source is dead")
		}
		if frontier[src] == 0 {
			sc.cur = append(sc.cur, src)
		}
		bit := uint64(1) << i
		frontier[src] |= bit
		visited[src] |= bit
		ecc[i], sum[i] = 0, 0
		reached[i] = 1
		if dist != nil {
			dist[i*n+int(src)] = 0
		}
	}
	var arena []int32
	var off []uint32
	if c != nil {
		arena, off = c.arena, c.off
	}
	masked := vdead != nil || adead != nil
	var cnt [msbfsBatch]int32
	for level := int32(1); len(sc.cur) > 0; level++ {
		sc.touched = sc.touched[:0]
		bottomUp := len(sc.cur) > n/msbfsDenseCut
		switch {
		case c == nil:
			nbuf = sc.expandSource(s, bottomUp, full, vdead, nbuf)
		case bottomUp && !masked:
			// Bottom-up: every vertex some source has not reached gathers
			// the frontier bits of its (symmetric) neighbors.
			for v := 0; v < n; v++ {
				if visited[v] == full {
					continue
				}
				var acc uint64
				for _, u := range arena[off[v]:off[v+1]] {
					acc |= frontier[u]
				}
				if acc&^visited[v] != 0 {
					next[v] = acc
					//lint:ignore indextrunc v < n <= MaxVertices (math.MaxInt32)
					sc.touched = append(sc.touched, int32(v))
				}
			}
		case bottomUp:
			// The same over alive vertices and arcs.  Dead neighbors
			// contribute nothing (their frontier word stays 0), so only
			// the arc mask is checked in the gather.
			for v := 0; v < n; v++ {
				if visited[v] == full || Bit(vdead, v) {
					continue
				}
				base := off[v]
				var acc uint64
				for j, u := range arena[base:off[v+1]] {
					if !Bit(adead, int(base)+j) {
						acc |= frontier[u]
					}
				}
				if acc&^visited[v] != 0 {
					next[v] = acc
					//lint:ignore indextrunc v < n <= MaxVertices (math.MaxInt32)
					sc.touched = append(sc.touched, int32(v))
				}
			}
		case !masked:
			// Top-down: frontier vertices push their bits along their rows.
			for _, u := range sc.cur {
				f := frontier[u]
				for _, v := range arena[off[u]:off[u+1]] {
					if f&^visited[v] != 0 {
						if next[v] == 0 {
							sc.touched = append(sc.touched, v)
						}
						next[v] |= f
					}
				}
			}
		default:
			// The same along alive arcs to alive targets.
			for _, u := range sc.cur {
				f := frontier[u]
				base := off[u]
				for j, v := range arena[base:off[u+1]] {
					if f&^visited[v] == 0 || Bit(adead, int(base)+j) || Bit(vdead, int(v)) {
						continue
					}
					if next[v] == 0 {
						sc.touched = append(sc.touched, v)
					}
					next[v] |= f
				}
			}
		}
		for _, u := range sc.cur {
			frontier[u] = 0
		}
		sc.cur = sc.cur[:0]
		clear(cnt[:ns])
		for _, v := range sc.touched {
			newBits := next[v] &^ visited[v]
			next[v] = 0
			if newBits == 0 {
				continue
			}
			visited[v] |= newBits
			frontier[v] = newBits
			sc.cur = append(sc.cur, v)
			for b := newBits; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				cnt[i]++
				if dist != nil {
					// level < n <= math.MaxInt16+1: MSBFSSourceInto checks N when dist is set
					dist[i*n+int(v)] = int16(level)
				}
			}
		}
		for i := 0; i < ns; i++ {
			if cnt[i] > 0 {
				ecc[i] = level
				sum[i] += int64(level) * int64(cnt[i])
				reached[i] += cnt[i]
			}
		}
	}
	return nbuf
}

// expandSource is one MSBFS level over NeighborsInto rows (vertex mask
// only): the pull or push step of msbfs, which keeps the arena loops free
// of interface calls.  Dead neighbors contribute nothing to a pull (their
// frontier word stays 0).
func (sc *MSBFSScratch) expandSource(s Source, bottomUp bool, full uint64, vdead []uint64, nbuf []int32) []int32 {
	visited, frontier, next := sc.visited, sc.frontier, sc.next
	if bottomUp {
		for v := range visited {
			if visited[v] == full || Bit(vdead, v) {
				continue
			}
			nbuf = s.NeighborsInto(v, nbuf)
			var acc uint64
			for _, u := range nbuf {
				acc |= frontier[u]
			}
			if acc&^visited[v] != 0 {
				next[v] = acc
				//lint:ignore indextrunc v < n <= MaxVertices (math.MaxInt32)
				sc.touched = append(sc.touched, int32(v))
			}
		}
		return nbuf
	}
	for _, u := range sc.cur {
		f := frontier[u]
		nbuf = s.NeighborsInto(int(u), nbuf)
		for _, v := range nbuf {
			if f&^visited[v] == 0 || Bit(vdead, int(v)) {
				continue
			}
			if next[v] == 0 {
				sc.touched = append(sc.touched, v)
			}
			next[v] |= f
		}
	}
	return nbuf
}
