package experiments

import (
	"fmt"

	"ipg/internal/analysis"
	"ipg/internal/mcmp"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topology"
)

// runMultiLevel implements the extension the paper announces at the end of
// Section 4.2 (results "can be easily extended to hierarchical parallel
// architectures involving more than two levels"): a three-tier packaging
// — nodes on chips, chips on boards — comparing a depth-2 RHSN against a
// hypercube of the same size with the same chip/board shape.  At both
// packaging levels the recursive super-IPG has far fewer off-unit links,
// hence proportionally wider links and higher bisection bandwidth under
// fixed per-unit budgets.
func runMultiLevel(scale Scale) (*Result, error) {
	res := &Result{ID: "E21/multilevel", Title: "three-tier packaging (chips on boards)", Source: "Section 4.2 (extension)"}
	k := 2
	if scale == Paper {
		k = 3
	}
	// RHSN(2, 2, Q_k): chips = innermost Q_k copies, boards = inner
	// HSN(2,Q_k) copies.
	w := superipg.RHSN(2, 2, nucleus.Hypercube(k))
	g, err := w.Build()
	if err != nil {
		return nil, err
	}
	u := g.Undirected()
	// Node v is its address, and the outer nucleus (the inner HSN) is
	// numbered by its own addresses, so the innermost Q_k copy of v is
	// v / 2^k and its inner HSN copy is v / M.
	mInner, mMid := 1<<k, w.Nuc.M
	chipOf := make([]int32, g.N())
	for v := range chipOf {
		//lint:ignore indextrunc v < g.N() <= ipg.MaxNodes (1<<22)
		chipOf[v] = int32(v / mInner)
	}
	nBoards := g.N() / mMid
	boardOfChip := make([]int32, g.N()/mInner)
	for c := range boardOfChip {
		//lint:ignore indextrunc c < g.N() <= ipg.MaxNodes (1<<22)
		boardOfChip[c] = int32(c * mInner / mMid)
	}
	two, err := mcmp.NewTwoLevel(w.Name(), u, chipOf, boardOfChip)
	if err != nil {
		return nil, err
	}
	if two.Boards != nBoards {
		return nil, fmt.Errorf("board count mismatch: %d vs %d", two.Boards, nBoards)
	}

	// Hypercube of the same size with the same chip/board node counts.
	logN := 0
	for 1<<logN < g.N() {
		logN++
	}
	h := topology.NewHypercube(logN)
	logChip := 0
	for 1<<logChip < two.MChip {
		logChip++
	}
	logBoard := 0
	for 1<<logBoard < two.MChip*two.ChipsPerBoard {
		logBoard++
	}
	chipOfQ := make([]int32, h.N())
	boardOfChipQ := make([]int32, h.N()>>logChip)
	for v := range chipOfQ {
		//lint:ignore indextrunc v < h.N() <= topology.MaxNodes (1<<22)
		chipOfQ[v] = int32(v >> logChip)
	}
	for c := range boardOfChipQ {
		//lint:ignore indextrunc c < h.N() <= topology.MaxNodes (1<<22)
		boardOfChipQ[c] = int32(c >> (logBoard - logChip))
	}
	twoQ, err := mcmp.NewTwoLevel(h.Name(), h.G, chipOfQ, boardOfChipQ)
	if err != nil {
		return nil, err
	}

	// Profile both levels of both machines with equal budgets per unit.
	chipBudget := float64(two.MChip)
	boardBudget := float64(two.MChip * two.ChipsPerBoard)
	tb := analysis.NewTable("Three-tier packaging: per-level profiles (equal per-unit budgets)",
		"machine", "level", "units", "links/unit", "avg inter-unit dist", "B_B")
	profile := func(t *mcmp.TwoLevel, name string) (chip, board mcmp.LevelProfile, err error) {
		cc, err := t.ChipClustered()
		if err != nil {
			return
		}
		chipSide := halfSplit(cc.Chips)
		chip, err = mcmp.AnalyzeLevel("chip", cc, chipSide, chipBudget)
		if err != nil {
			return
		}
		bc, err := t.BoardClustered()
		if err != nil {
			return
		}
		boardSide := halfSplit(bc.Chips)
		board, err = mcmp.AnalyzeLevel("board", bc, boardSide, boardBudget)
		if err != nil {
			return
		}
		tb.AddRow(name, "chip", chip.Units, chip.LinksPerUnit, chip.AvgInterUnitDist, chip.BisectionBandwidth)
		tb.AddRow(name, "board", board.Units, board.LinksPerUnit, board.AvgInterUnitDist, board.BisectionBandwidth)
		return
	}
	// Units are split into id-halves; for the hypercube this is the
	// optimal top-bit cut, while for the RHSN (BFS discovery order) it is
	// an arbitrary balanced cut — conservative for the comparison, since
	// it can only hurt the RHSN side.
	chipRH, boardRH, err := profile(two, w.Name())
	if err != nil {
		return nil, err
	}
	chipQ, boardQ, err := profile(twoQ, h.Name())
	if err != nil {
		return nil, err
	}
	res.addTable(tb)

	res.check("RHSN has fewer off-chip links per chip",
		"hierarchical locality at level 1",
		fmt.Sprintf("%d vs %d", chipRH.LinksPerUnit, chipQ.LinksPerUnit),
		chipRH.LinksPerUnit < chipQ.LinksPerUnit)
	res.check("RHSN has fewer off-board links per board",
		"hierarchical locality at level 2",
		fmt.Sprintf("%d vs %d", boardRH.LinksPerUnit, boardQ.LinksPerUnit),
		boardRH.LinksPerUnit < boardQ.LinksPerUnit)
	res.check("RHSN chip-level bisection bandwidth higher",
		"super-IPG advantage persists at level 1",
		fmt.Sprintf("%.4g vs %.4g", chipRH.BisectionBandwidth, chipQ.BisectionBandwidth),
		chipRH.BisectionBandwidth > chipQ.BisectionBandwidth)
	res.check("RHSN board-level bisection bandwidth higher",
		"super-IPG advantage persists at level 2",
		fmt.Sprintf("%.4g vs %.4g", boardRH.BisectionBandwidth, boardQ.BisectionBandwidth),
		boardRH.BisectionBandwidth > boardQ.BisectionBandwidth)
	res.check("RHSN avg inter-board distance lower",
		"shorter board-level routes",
		fmt.Sprintf("%.4g vs %.4g", boardRH.AvgInterUnitDist, boardQ.AvgInterUnitDist),
		boardRH.AvgInterUnitDist < boardQ.AvgInterUnitDist)
	return res, nil
}

// halfSplit assigns the first half of unit ids to side 0.
func halfSplit(units int) []int8 {
	side := make([]int8, units)
	for i := units / 2; i < units; i++ {
		side[i] = 1
	}
	return side
}
