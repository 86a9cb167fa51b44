package mcmp

import (
	"fmt"

	"ipg/internal/graph"
)

// This file implements the extension the paper announces at the end of
// Section 4.2: "even though we assumed only two levels of hierarchy for
// our network performance comparisons in this section, our results and
// methodology can be easily extended to hierarchical parallel
// architectures involving more than two levels."
//
// A TwoLevel packaging places nodes on chips and chips on boards; each
// packaging level has its own link census, intercluster metrics, and
// bisection bandwidth under a fixed per-unit budget (unit chip capacity at
// level 1, unit board capacity at level 2).

// TwoLevel is a three-tier packaging: nodes -> chips -> boards.
type TwoLevel struct {
	Name string
	G    *graph.Graph
	// Chip assignment (level 1).
	ChipOf []int32
	Chips  int
	MChip  int
	// Board assignment per chip (level 2).
	BoardOfChip   []int32
	Boards        int
	ChipsPerBoard int
}

// NewTwoLevel validates a nested packaging: chips uniform in size, boards
// uniform in chip count, and every chip entirely inside one board.
func NewTwoLevel(name string, g *graph.Graph, chipOf, boardOfChip []int32) (*TwoLevel, error) {
	c, err := NewClustered(name, g, chipOf)
	if err != nil {
		return nil, err
	}
	if len(boardOfChip) != c.Chips {
		return nil, fmt.Errorf("mcmp: boardOfChip has %d entries for %d chips", len(boardOfChip), c.Chips)
	}
	counts := map[int32]int{}
	for _, b := range boardOfChip {
		counts[b]++
	}
	per := -1
	for b, cnt := range counts {
		if b < 0 || int(b) >= len(counts) {
			return nil, fmt.Errorf("mcmp: board ids must be dense, got %d", b)
		}
		if per < 0 {
			per = cnt
		} else if cnt != per {
			return nil, fmt.Errorf("mcmp: board sizes differ (%d vs %d chips)", per, cnt)
		}
	}
	return &TwoLevel{
		Name: name, G: g,
		ChipOf: chipOf, Chips: c.Chips, MChip: c.M,
		BoardOfChip: boardOfChip, Boards: len(counts), ChipsPerBoard: per,
	}, nil
}

// BoardOfNode returns the board of node v.
func (t *TwoLevel) BoardOfNode(v int) int32 { return t.BoardOfChip[t.ChipOf[v]] }

// BoardClustered views the boards as one flat clustering of the nodes,
// reusing the single-level machinery for board-level metrics.
func (t *TwoLevel) BoardClustered() (*Clustered, error) {
	boardOf := make([]int32, t.G.N())
	for v := range boardOf {
		boardOf[v] = t.BoardOfNode(v)
	}
	return NewClustered(t.Name+"/boards", t.G, boardOf)
}

// ChipClustered views the chips as the flat clustering (level 1).
func (t *TwoLevel) ChipClustered() (*Clustered, error) {
	return NewClustered(t.Name+"/chips", t.G, t.ChipOf)
}

// LevelProfile summarizes one packaging level.
type LevelProfile struct {
	Level              string
	Units              int
	NodesPerUnit       int
	LinksPerUnit       int // off-unit links touching each unit (uniform)
	InterUnitDegree    float64
	InterUnitDiameter  int
	AvgInterUnitDist   float64
	PerLinkBW          float64
	BisectionWidth     int
	BisectionBandwidth float64
}

// AnalyzeLevel profiles one level given its flat clustering, a unit-level
// bisection, and the per-unit budget.  Unlike Analyze it tolerates
// non-uniform off-unit link counts (recursive super-IPGs have slightly
// fewer links on units whose higher-level generator actions are
// self-loops): each unit splits its budget over its own links, and a cut
// link's usable bandwidth is the minimum of its two endpoint allocations.
func AnalyzeLevel(level string, c *Clustered, unitSide []int8, unitCapacity float64) (LevelProfile, error) {
	if !graph.IsBisection(unitSide) {
		return LevelProfile{}, fmt.Errorf("mcmp: %s: unit partition is not balanced", c.Name)
	}
	side, err := c.ChipPartitionToNodes(unitSide)
	if err != nil {
		return LevelProfile{}, err
	}
	per := c.OffChipLinksPerChip()
	maxLinks := 0
	for _, l := range per {
		if l > maxLinks {
			maxLinks = l
		}
	}
	bwOf := func(chip int32) float64 { return unitCapacity / float64(per[chip]) }
	width := 0
	bandwidth := 0.0
	var bwSum float64
	var bwCount int
	c.G.Edges(func(u, v int) {
		cu, cv := c.ClusterOf[u], c.ClusterOf[v]
		if cu == cv {
			return
		}
		bw := bwOf(cu)
		if b2 := bwOf(cv); b2 < bw {
			bw = b2
		}
		bwSum += bw
		bwCount++
		if side[u] != side[v] {
			width++
			bandwidth += bw
		}
	})
	avgBW := 0.0
	if bwCount > 0 {
		avgBW = bwSum / float64(bwCount)
	}
	diam, avg := c.InterclusterDistances()
	return LevelProfile{
		Level:              level,
		Units:              c.Chips,
		NodesPerUnit:       c.M,
		LinksPerUnit:       maxLinks,
		InterUnitDegree:    c.InterclusterDegree(),
		InterUnitDiameter:  diam,
		AvgInterUnitDist:   avg,
		PerLinkBW:          avgBW,
		BisectionWidth:     width,
		BisectionBandwidth: bandwidth,
	}, nil
}

// CrossBoardLinks counts links joining distinct boards (the level-2
// analogue of OffChipLinks).
func (t *TwoLevel) CrossBoardLinks() int {
	total := 0
	t.G.Edges(func(u, v int) {
		if t.BoardOfNode(u) != t.BoardOfNode(v) {
			total++
		}
	})
	return total
}
