package topo

// Implicit is the codec-backed adjacency implementation: a Source whose
// neighbor rows are computed on demand from a rank/unrank
// codec instead of being stored in an arena.  Its memory footprint is the
// codec struct — independent of the vertex count — which is what lets the
// serving layer keep huge families resident at ~zero cache cost.
//
// Every row goes through the same canonicalization topo.Build applies to
// the materialized stream (sort ascending, collapse duplicates, drop
// self-loops), so for a correct codec Implicit rows are bit-identical to
// the CSR rows of the same family.
type Implicit struct {
	codec Codec
}

// NewImplicit wraps a codec as an adjacency source.
func NewImplicit(c Codec) *Implicit {
	if c == nil {
		panic("topo.NewImplicit: nil codec")
	}
	return &Implicit{codec: c}
}

// Codec returns the underlying codec.
func (im *Implicit) Codec() Codec { return im.codec }

// CodecName returns the codec's identifying name.
func (im *Implicit) CodecName() string { return im.codec.Name() }

// N implements Source.
func (im *Implicit) N() int { return im.codec.N() }

// DegreeBound implements Source.
func (im *Implicit) DegreeBound() int { return im.codec.DegreeBound() }

// VertexTransitive implements Symmetric, delegating to the codec.
func (im *Implicit) VertexTransitive() bool { return im.codec.VertexTransitive() }

// NeighborsInto implements Source: the codec's raw neighbors of v,
// canonicalized into buf.
func (im *Implicit) NeighborsInto(v int, buf []int32) []int32 {
	if v < 0 || v >= im.codec.N() {
		panic("topo.Implicit: vertex out of range")
	}
	buf = im.codec.AppendNeighbors(v, buf[:0])
	//lint:ignore indextrunc v < N() <= MaxVertices (math.MaxInt32)
	return CanonicalizeRow(buf, int32(v))
}

// ByteSize reports the resident footprint of the implicit representation:
// a small constant for the codec struct, by construction independent of N.
func (im *Implicit) ByteSize() int64 { return 128 }

// CanonicalizeRow sorts row ascending, collapses duplicates, and drops
// the value self, in place, returning the shortened slice — the exact
// per-row normalization topo.Build applies to a materialized edge stream.
// Rows are small (a vertex degree), so insertion sort beats sort.Slice's
// interface overhead on the neighbor-generation hot path.
func CanonicalizeRow(row []int32, self int32) []int32 {
	//lint:ignore ctxflow normalizes one neighbor row, at most DegreeBound entries — far below cancellation granularity
	for i := 1; i < len(row); i++ {
		x := row[i]
		j := i - 1
		for j >= 0 && row[j] > x {
			row[j+1] = row[j]
			j--
		}
		row[j+1] = x
	}
	w := 0
	for i, x := range row {
		if x == self || (i > 0 && x == row[i-1]) {
			continue
		}
		row[w] = x
		w++
	}
	return row[:w]
}
