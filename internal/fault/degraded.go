package fault

import (
	"fmt"

	"ipg/internal/topo"
)

// DegradedView is a masked read-only view of an adjacency source under a
// fault Set: failed vertices (and, on CSR-backed views, failed edges)
// are hidden from every traversal without copying or rebuilding
// anything.  It implements topo.Source over the alive subgraph (dead
// vertices keep their ids but have no neighbors).
//
// A DegradedView deliberately does NOT implement topo.Symmetric: even
// when the underlying family is vertex-transitive, faults break the
// symmetry, so the single-source diameter/avg-distance shortcut must
// never fire on a degraded topology.  Analyze always sweeps every alive
// source.
type DegradedView struct {
	src       topo.Source
	c         *topo.CSR // non-nil when src is a materialized arena; enables arc masks
	set       *Set
	clusterOf []int32 // optional chip assignment for per-nucleus reachability
}

// NewDegradedView wraps a materialized CSR with the fault set; every
// fault mode is supported.
func NewDegradedView(c *topo.CSR, set *Set) (*DegradedView, error) {
	if c.N() != set.N() {
		return nil, fmt.Errorf("fault: set built for %d vertices, topology has %d", set.N(), c.N())
	}
	return &DegradedView{src: c, c: c, set: set}, nil
}

// NewDegradedSourceView wraps any adjacency source with the fault set.
// A CSR source behaves exactly as NewDegradedView; any other source
// (e.g. a codec-backed topo.Implicit) supports vertex-level faults only,
// because arc masks index a CSR arena that an implicit source does not
// have.
func NewDegradedSourceView(s topo.Source, set *Set) (*DegradedView, error) {
	if s.N() != set.N() {
		return nil, fmt.Errorf("fault: set built for %d vertices, topology has %d", set.N(), s.N())
	}
	c, _ := s.(*topo.CSR)
	if c == nil && set.ADead != nil {
		return nil, fmt.Errorf("fault: link faults need a materialized topology (arc masks index the CSR arena)")
	}
	return &DegradedView{src: s, c: c, set: set}, nil
}

// WithClusters attaches a chip assignment (len == N) so Analyze can
// report per-nucleus reachability; it returns the view for chaining.
func (d *DegradedView) WithClusters(clusterOf []int32) *DegradedView {
	d.clusterOf = clusterOf
	return d
}

// Set returns the underlying fault set.
func (d *DegradedView) Set() *Set { return d.set }

// N implements topo.Source (dead vertices keep their ids).
func (d *DegradedView) N() int { return d.src.N() }

// Alive returns the surviving vertex count.
func (d *DegradedView) Alive() int { return d.set.Alive() }

// DegreeBound implements topo.Source: masking only removes neighbors, so
// the underlying bound still holds.
func (d *DegradedView) DegreeBound() int { return d.src.DegreeBound() }

// NeighborsInto implements topo.Source: v's alive neighbors, ascending
// (the canonical row order of the underlying source, minus the masked
// entries).
func (d *DegradedView) NeighborsInto(v int, buf []int32) []int32 {
	buf = buf[:0]
	if topo.Bit(d.set.VDead, v) {
		return buf
	}
	if d.c != nil {
		first := d.c.RowStart(v)
		for j, u := range d.c.Row(v) {
			if topo.Bit(d.set.ADead, first+j) || topo.Bit(d.set.VDead, int(u)) {
				continue
			}
			buf = append(buf, u)
		}
		return buf
	}
	buf = d.src.NeighborsInto(v, buf)
	w := 0
	//lint:ignore ctxflow filters one neighbor row, at most DegreeBound entries — far below cancellation granularity
	for _, u := range buf {
		if topo.Bit(d.set.VDead, int(u)) {
			continue
		}
		buf[w] = u
		w++
	}
	return buf[:w]
}
