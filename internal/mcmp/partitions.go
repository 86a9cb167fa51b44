package mcmp

//lint:file-ignore ctxflow partition tables are one-shot O(N) fills over node counts bounded by ipg.MaxNodes, built under serve's build timeout

import (
	"fmt"

	"ipg/internal/superipg"
	"ipg/internal/topology"
)

// This file supplies the chip assignments and the structured bisections the
// paper analyses for each network family.  Structured bisections never cut
// a chip: they are partitions of the chips.

//lint:file-ignore indextrunc chip and node ids here are bounded by the source network's node count, capped at topology.MaxNodes / ipg.MaxNodes (1<<22)

// ClusterHypercube puts each 2^logM-node subcube (low address bits) on one
// chip.
func ClusterHypercube(h *topology.Hypercube, logM int) (*Clustered, error) {
	if logM < 0 || logM >= h.D {
		return nil, fmt.Errorf("mcmp: logM %d out of range for Q%d", logM, h.D)
	}
	clusterOf := make([]int32, h.N())
	for v := range clusterOf {
		clusterOf[v] = int32(v >> logM)
	}
	return NewClustered(fmt.Sprintf("Q%d/%d-node-chips", h.D, 1<<logM), h.G, clusterOf)
}

// HypercubeBisection splits the hypercube's chips by the top address bit:
// the canonical N/2-link bisection.
func HypercubeBisection(c *Clustered) []int8 {
	side := make([]int8, c.Chips)
	for chip := range side {
		side[chip] = int8(chip >> (log2(c.Chips) - 1) & 1)
	}
	return side
}

// ClusterTorus2D puts side x side sub-blocks of the k-ary 2-cube on chips
// (side must divide k).
func ClusterTorus2D(t *topology.Torus, side int) (*Clustered, error) {
	if t.Dims != 2 {
		return nil, fmt.Errorf("mcmp: ClusterTorus2D needs a 2-cube, got %d dims", t.Dims)
	}
	if side < 1 || t.K%side != 0 {
		return nil, fmt.Errorf("mcmp: chip side %d must divide k=%d", side, t.K)
	}
	chipsPerRow := t.K / side
	clusterOf := make([]int32, t.N())
	for v := range clusterOf {
		x, y := t.Digit(v, 0), t.Digit(v, 1)
		clusterOf[v] = int32((y/side)*chipsPerRow + x/side)
	}
	return NewClustered(fmt.Sprintf("%s/%d-node-chips", t.Name(), side*side), t.G, clusterOf)
}

// Torus2DBisection cuts the torus into left and right halves of chip
// columns: 2k links cut (both the middle seam and the wraparound seam).
func Torus2DBisection(t *topology.Torus, c *Clustered, side int) []int8 {
	chipsPerRow := t.K / side
	sideOf := make([]int8, c.Chips)
	for chip := range sideOf {
		if chip%chipsPerRow < chipsPerRow/2 {
			sideOf[chip] = 0
		} else {
			sideOf[chip] = 1
		}
	}
	return sideOf
}

// ClusterCCC puts each d-cycle on one chip (M = d), giving every node
// exactly one off-chip link: the constant intercluster degree the paper
// cites for CCC.
func ClusterCCC(ccc *topology.CCC) (*Clustered, error) {
	clusterOf := make([]int32, ccc.N())
	for v := range clusterOf {
		clusterOf[v] = int32(ccc.CubeAddr(v))
	}
	return NewClustered(fmt.Sprintf("CCC(%d)/cycle-chips", ccc.D), ccc.G, clusterOf)
}

// CCCBisection splits the CCC by the top cube-address bit.
func CCCBisection(ccc *topology.CCC, c *Clustered) []int8 {
	side := make([]int8, c.Chips)
	for chip := range side {
		side[chip] = int8(chip >> (ccc.D - 1) & 1)
	}
	return side
}

// ClusterButterfly partitions the wrapped butterfly WBF(d) into
// sub-butterflies of "a" consecutive levels (a must divide d): the chip of
// node (row, lev) is determined by the level band and the row bits outside
// the band.  Each chip holds a*2^a nodes and only its boundary levels have
// off-chip links, realizing the low intercluster degree the paper cites
// from its butterfly-partitioning work [32].
func ClusterButterfly(b *topology.Butterfly, a int) (*Clustered, error) {
	if a < 1 || b.D%a != 0 {
		return nil, fmt.Errorf("mcmp: band width %d must divide d=%d", a, b.D)
	}
	bands := b.D / a
	chipIdx := map[string]int32{}
	clusterOf := make([]int32, b.N())
	for v := range clusterOf {
		row, lev := b.Row(v), b.Level(v)
		band := lev / a
		// Zero the row bits whose cross edges live inside this band.
		mask := ((1 << a) - 1) << (band * a)
		key := fmt.Sprintf("%d:%d", band, row&^mask)
		id, ok := chipIdx[key]
		if !ok {
			id = int32(len(chipIdx))
			chipIdx[key] = id
		}
		clusterOf[v] = id
	}
	c, err := NewClustered(fmt.Sprintf("WBF(%d)/band-%d-chips", b.D, a), b.G, clusterOf)
	if err != nil {
		return nil, err
	}
	if c.Chips != bands<<(b.D-a) {
		return nil, fmt.Errorf("mcmp: butterfly chip count %d, want %d", c.Chips, bands<<(b.D-a))
	}
	return c, nil
}

// ButterflyBisection splits the wrapped butterfly's chips by level band:
// the first half of the bands on one side.  No row-bit split can avoid
// cutting chips (every row bit is owned by exactly one band, whose chips
// mix both values of it), so the band split is the natural chip-respecting
// bisection; it cuts the two band seams, 2^(d+1) links each, which is
// within a constant factor of the butterfly's Theta(N/log N) bisection
// width and realizes Corollary 4.9's Theta(wN/log_M N) bandwidth.
func ButterflyBisection(b *topology.Butterfly, c *Clustered, a int) ([]int8, error) {
	bands := b.D / a
	if bands%2 != 0 {
		return nil, fmt.Errorf("mcmp: band split needs an even number of bands, got %d", bands)
	}
	side := make([]int8, c.Chips)
	for v := 0; v < b.N(); v++ {
		band := b.Level(v) / a
		s := int8(0)
		if band >= bands/2 {
			s = 1
		}
		side[c.ClusterOf[v]] = s
	}
	return side, nil
}

// ClusterSuperIPG puts each nucleus copy of a materialized super-IPG on one
// chip.
func ClusterSuperIPG(w *superipg.Network, g *superipg.Graph) (*Clustered, error) {
	clusterOf, _ := w.Clusters(g)
	return NewClustered(w.Name(), g.Undirected(), clusterOf)
}

// SuperIPGBisection splits the super-IPG by the value of group 2: nodes
// whose second super-symbol encodes a nucleus address below M/2, digit 1
// of their address, go to side 0.  For HSN and SFN this cuts exactly N/4
// links (only the T2/F2 links whose two labels disagree on the
// predicate), the partition behind Corollary 4.8.
func SuperIPGBisection(w *superipg.Network, g *superipg.Graph, c *Clustered) ([]int8, error) {
	M := w.Nuc.M
	side := make([]int8, c.Chips)
	assigned := make([]bool, c.Chips)
	for v := 0; v < g.N(); v++ {
		s := int8(0)
		if v/M%M >= M/2 {
			s = 1
		}
		chip := c.ClusterOf[v]
		if assigned[chip] && side[chip] != s {
			return nil, fmt.Errorf("mcmp: group-2 split cut a chip, which cannot happen")
		}
		side[chip] = s
		assigned[chip] = true
	}
	return side, nil
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
