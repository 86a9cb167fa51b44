// Package mcmp implements the paper's multiple chip-multiprocessor (MCMP)
// cost model of Section 4: networks partitioned onto chips (clusters), the
// unit chip capacity model (the sum of the bandwidths of all off-chip links
// of a chip is fixed), intercluster degree/diameter/average-distance, and
// bisection width/bandwidth under the different capacity models.
//
// Under unit chip capacity a chip's off-chip bandwidth budget C is split
// evenly over its off-chip links, so a network with few wide off-chip links
// (a super-IPG) gets more bandwidth per link than one with many narrow ones
// (a hypercube): the root of the paper's headline result.
package mcmp

//lint:file-ignore ctxflow clustered-model constructors are one-shot O(N) passes over graphs bounded by ipg.MaxNodes (1<<22), run inside serve's build worker slot and timeout

import (
	"context"
	"fmt"

	"ipg/internal/graph"
)

// Model selects the link-capacity normalization of Section 4.
type Model int

const (
	// UnitLink: every link has bandwidth 1 (Section 3's model).
	UnitLink Model = iota
	// UnitNode: each node's total link bandwidth is fixed.
	UnitNode
	// UnitChip: each chip's total off-chip link bandwidth is fixed (the
	// paper's proposed model for MCMPs).
	UnitChip
	// UnitBisection: total bisection bandwidth fixed (Dally's SCMP model).
	UnitBisection
)

func (m Model) String() string {
	switch m {
	case UnitLink:
		return "unit-link"
	case UnitNode:
		return "unit-node"
	case UnitChip:
		return "unit-chip"
	case UnitBisection:
		return "unit-bisection"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Clustered is a network whose nodes are assigned to chips.
type Clustered struct {
	Name      string
	G         *graph.Graph
	ClusterOf []int32
	Chips     int
	M         int // nodes per chip (uniform)
}

// NewClustered validates the assignment (every chip must hold the same
// number of nodes) and returns the clustered network.
func NewClustered(name string, g *graph.Graph, clusterOf []int32) (*Clustered, error) {
	if len(clusterOf) != g.N() {
		return nil, fmt.Errorf("mcmp: clusterOf has %d entries for %d nodes", len(clusterOf), g.N())
	}
	counts := map[int32]int{}
	for _, c := range clusterOf {
		counts[c]++
	}
	m := -1
	for c, cnt := range counts {
		if c < 0 || int(c) >= len(counts) {
			return nil, fmt.Errorf("mcmp: cluster ids must be dense 0..%d, got %d", len(counts)-1, c)
		}
		if m < 0 {
			m = cnt
		} else if cnt != m {
			return nil, fmt.Errorf("mcmp: chip sizes differ (%d vs %d)", m, cnt)
		}
	}
	return &Clustered{Name: name, G: g, ClusterOf: clusterOf, Chips: len(counts), M: m}, nil
}

// OffChipLinks returns the total number of links between distinct chips.
func (c *Clustered) OffChipLinks() int {
	total := 0
	c.G.Edges(func(u, v int) {
		if c.ClusterOf[u] != c.ClusterOf[v] {
			total++
		}
	})
	return total
}

// OffChipLinksPerChip returns the number of off-chip links touching each
// chip.
func (c *Clustered) OffChipLinksPerChip() []int {
	per := make([]int, c.Chips)
	c.G.Edges(func(u, v int) {
		cu, cv := c.ClusterOf[u], c.ClusterOf[v]
		if cu != cv {
			per[cu]++
			per[cv]++
		}
	})
	return per
}

// InterclusterDegree returns the paper's intercluster degree: the maximum
// over chips of the average number of off-chip links per node.
func (c *Clustered) InterclusterDegree() float64 {
	max := 0.0
	for _, links := range c.OffChipLinksPerChip() {
		if d := float64(links) / float64(c.M); d > max {
			max = d
		}
	}
	return max
}

// Quotient returns the chip graph: one vertex per chip, an edge between
// chips joined by at least one link.
func (c *Clustered) Quotient() *graph.Graph {
	// A link inside a chip is a self-loop of the quotient, which the
	// builder drops.
	return graph.FromStream(c.Chips, func(edge func(u, v int)) {
		c.G.Edges(func(u, v int) {
			edge(int(c.ClusterOf[u]), int(c.ClusterOf[v]))
		})
	})
}

// InterclusterDistances returns the maximum intercluster distance between
// any pair of nodes and the average over ordered node pairs including self
// pairs, from one sweep of the quotient graph.  That assumes every chip's
// subgraph is connected (true for all the paper's partitions) and, for
// the average, uniform chip sizes.
func (c *Clustered) InterclusterDistances() (diameter int, avg float64) {
	diameter, avg, _ = graph.Distances(context.Background(), c.Quotient()) // Background is never cancelled
	return diameter, avg
}

// PerOffChipLinkBandwidth returns the bandwidth of one off-chip link under
// the given model, where chipCapacity is the fixed per-chip off-chip
// budget (unit chip), nodeCapacity the fixed per-node budget (unit node).
// It requires a uniform off-chip link count per chip, as holds for every
// network family analysed in the paper.
func (c *Clustered) PerOffChipLinkBandwidth(model Model, capacity float64) (float64, error) {
	per := c.OffChipLinksPerChip()
	links := per[0]
	for _, l := range per {
		if l != links {
			return 0, fmt.Errorf("mcmp: %s has non-uniform off-chip link counts (%d vs %d)", c.Name, links, l)
		}
	}
	switch model {
	case UnitLink:
		return 1, nil
	case UnitChip:
		return capacity / float64(links), nil
	case UnitNode:
		// A node's budget is split over all its links; off-chip links get
		// the same share as on-chip ones.  For regular graphs this is
		// capacity/degree.
		reg, deg := c.G.IsRegular()
		if !reg {
			return 0, fmt.Errorf("mcmp: unit-node model needs a regular graph")
		}
		return capacity / float64(deg), nil
	default:
		return 0, fmt.Errorf("mcmp: per-link bandwidth undefined for model %v", model)
	}
}

// ChipPartitionToNodes expands a partition of chips into a partition of
// nodes (chips are never split, so on-chip links are never cut — matching
// the paper's convention that wide on-chip links are not removed).
func (c *Clustered) ChipPartitionToNodes(chipSide []int8) ([]int8, error) {
	if len(chipSide) != c.Chips {
		return nil, fmt.Errorf("mcmp: chip partition has %d entries for %d chips", len(chipSide), c.Chips)
	}
	side := make([]int8, c.G.N())
	for v := range side {
		side[v] = chipSide[c.ClusterOf[v]]
	}
	return side, nil
}

// OffChipCut counts the off-chip links crossing a node partition.
func (c *Clustered) OffChipCut(side []int8) int {
	cut := 0
	c.G.Edges(func(u, v int) {
		if side[u] != side[v] && c.ClusterOf[u] != c.ClusterOf[v] {
			cut++
		}
	})
	return cut
}

// Analysis collects the MCMP metrics of one network under one bisection.
type Analysis struct {
	Name               string
	N, M, Chips        int
	OffChipLinks       int
	LinksPerChip       int
	InterclusterDeg    float64
	InterclusterDiam   int
	AvgInterclusterDst float64
	PerLinkBW          float64
	BisectionWidth     int
	BisectionBandwidth float64
}

// Analyze computes the full MCMP profile of a clustered network for a given
// chip-level bisection under unit chip capacity with the given per-chip
// budget.
func Analyze(c *Clustered, chipSide []int8, chipCapacity float64) (Analysis, error) {
	if !graph.IsBisection(chipSide) {
		return Analysis{}, fmt.Errorf("mcmp: %s: chip partition is not balanced", c.Name)
	}
	side, err := c.ChipPartitionToNodes(chipSide)
	if err != nil {
		return Analysis{}, err
	}
	bw, err := c.PerOffChipLinkBandwidth(UnitChip, chipCapacity)
	if err != nil {
		return Analysis{}, err
	}
	per := c.OffChipLinksPerChip()
	width := c.OffChipCut(side)
	diam, avg := c.InterclusterDistances()
	return Analysis{
		Name:               c.Name,
		N:                  c.G.N(),
		M:                  c.M,
		Chips:              c.Chips,
		OffChipLinks:       c.OffChipLinks(),
		LinksPerChip:       per[0],
		InterclusterDeg:    c.InterclusterDegree(),
		InterclusterDiam:   diam,
		AvgInterclusterDst: avg,
		PerLinkBW:          bw,
		BisectionWidth:     width,
		BisectionBandwidth: float64(width) * bw,
	}, nil
}
