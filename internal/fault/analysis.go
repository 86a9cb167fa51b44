package fault

//lint:file-ignore ctxflow degraded-view analysis is one O(N+M) pass per request over an artifact bounded by MaxNodes; serve.degradedMetrics polls ctx between the surrounding MSBFS batches

import (
	"context"

	"ipg/internal/topo"
)

// Report is the survivability census of one degraded topology.
//
// Diameter and AvgDistance follow the same convention as the undegraded
// graph metrics: they cover the whole alive subgraph and are -1 when it
// is disconnected (or empty), exactly matching a from-scratch
// recomputation on a rebuilt alive-vertex graph.  The Giant* fields
// always describe the largest connected component, so a mostly-intact
// network remains measurable even when a few vertices split off.
type Report struct {
	N     int // vertices of the underlying topology
	Alive int // surviving vertices

	FailedVertices int
	FailedEdges    int // explicitly failed edges (not those lost to dead vertices)
	FailedChips    int

	Components       int // connected components of the alive subgraph
	LargestComponent int // vertex count of the largest component

	Diameter    int     // alive subgraph; -1 when disconnected or empty
	AvgDistance float64 // alive subgraph; -1 when disconnected or empty

	GiantDiameter    int     // largest component; -1 only when Alive == 0
	GiantAvgDistance float64 // largest component; -1 only when Alive == 0

	// Per-nucleus reachability, present when the view has a chip
	// assignment: how many chips exist, how many lost every vertex, and
	// how many still have at least one vertex in the largest component.
	ChipsTotal     int
	ChipsDead      int
	ChipsReachable int
}

// Analyze sweeps the degraded topology and returns the survivability
// report.  The sweep batches alive sources 64 at a time through the
// masked MSBFS kernel and checks ctx between batches, so cancellation is
// observed after at most one batch of work.  It never consults the
// vertex-transitivity shortcut: every alive source is swept.
func (d *DegradedView) Analyze(ctx context.Context) (*Report, error) {
	n := d.src.N()
	set := d.set
	r := &Report{
		N:              n,
		Alive:          set.Alive(),
		FailedVertices: len(set.DeadVertices),
		FailedEdges:    len(set.DeadEdges),
		FailedChips:    len(set.DeadChips),
	}
	if d.clusterOf != nil {
		for _, ch := range d.clusterOf {
			if int(ch) >= r.ChipsTotal {
				r.ChipsTotal = int(ch) + 1
			}
		}
	}
	if r.Alive == 0 {
		r.Diameter, r.AvgDistance = -1, -1
		r.GiantDiameter, r.GiantAvgDistance = -1, -1
		r.ChipsDead = r.ChipsTotal
		return r, nil
	}

	// Component census: masked scalar BFS flood from each unlabelled
	// alive vertex.  CSR-backed views walk the arena directly (the only
	// path where arc masks can exist); other sources generate alive rows
	// through NeighborsInto.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	var nbuf []int32
	if d.c == nil {
		nbuf = make([]int32, 0, d.src.DegreeBound())
	}
	giant, giantSize := int32(-1), 0
	for v := 0; v < n; v++ {
		if comp[v] >= 0 || topo.Bit(set.VDead, v) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		//lint:ignore indextrunc Components counts alive vertices, bounded by n <= topo.MaxVertices (math.MaxInt32)
		id := int32(r.Components)
		r.Components++
		size := 0
		queue = queue[:0]
		//lint:ignore indextrunc v < n <= topo.MaxVertices (math.MaxInt32)
		queue = append(queue, int32(v))
		comp[v] = id
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			size++
			if d.c != nil {
				first := d.c.RowStart(int(u))
				for j, w := range d.c.Row(int(u)) {
					if comp[w] >= 0 || topo.Bit(set.ADead, first+j) || topo.Bit(set.VDead, int(w)) {
						continue
					}
					comp[w] = id
					queue = append(queue, w)
				}
			} else {
				nbuf = d.src.NeighborsInto(int(u), nbuf)
				for _, w := range nbuf {
					if comp[w] >= 0 || topo.Bit(set.VDead, int(w)) {
						continue
					}
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		if size > giantSize {
			giant, giantSize = id, size
		}
	}
	r.LargestComponent = giantSize

	// All-alive-sources sweep, 64 sources per masked MSBFS batch.
	alive := queue[:0]
	for v := 0; v < n; v++ {
		if !topo.Bit(set.VDead, v) {
			//lint:ignore indextrunc v < n <= topo.MaxVertices (math.MaxInt32)
			alive = append(alive, int32(v))
		}
	}
	scratch := topo.NewMSBFSScratch(n)
	var (
		ecc     [64]int32
		sum     [64]int64
		reached [64]int32

		diam, giantDiam   int32
		total, giantTotal int64
	)
	for lo := 0; lo < len(alive); lo += 64 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + 64
		if hi > len(alive) {
			hi = len(alive)
		}
		batch := alive[lo:hi]
		nbuf = topo.MSBFSMaskedSourceInto(d.src, batch, scratch, set.VDead, set.ADead, ecc[:], sum[:], reached[:], nbuf)
		for i, src := range batch {
			if ecc[i] > diam {
				diam = ecc[i]
			}
			total += sum[i]
			if comp[src] == giant {
				if ecc[i] > giantDiam {
					giantDiam = ecc[i]
				}
				giantTotal += sum[i]
			}
		}
	}
	if r.Components == 1 {
		r.Diameter = int(diam)
		r.AvgDistance = float64(total) / float64(r.Alive) / float64(r.Alive)
	} else {
		r.Diameter, r.AvgDistance = -1, -1
	}
	r.GiantDiameter = int(giantDiam)
	r.GiantAvgDistance = float64(giantTotal) / float64(giantSize) / float64(giantSize)

	if d.clusterOf != nil {
		chipAlive := make([]bool, r.ChipsTotal)
		chipInGiant := make([]bool, r.ChipsTotal)
		for v := 0; v < n; v++ {
			if topo.Bit(set.VDead, v) {
				continue
			}
			ch := d.clusterOf[v]
			chipAlive[ch] = true
			if comp[v] == giant {
				chipInGiant[ch] = true
			}
		}
		for ch := 0; ch < r.ChipsTotal; ch++ {
			if !chipAlive[ch] {
				r.ChipsDead++
			}
			if chipInGiant[ch] {
				r.ChipsReachable++
			}
		}
	}
	return r, nil
}
