package experiments

import (
	"context"
	"fmt"

	"ipg/internal/analysis"
	"ipg/internal/graph"
	"ipg/internal/mcmp"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topology"
)

// runTranspose reproduces the matrix-transposition comparison: the paper's
// introduction lists matrix transposition among the communication-intensive
// tasks where MCMP super-IPGs beat hypercubes.  Transposition is a
// bisection-stressing permutation (half the packets cross any
// row/column-half cut), so completion time under unit chip capacity tracks
// the inverse bisection bandwidth: the HSN finishes in roughly half the
// hypercube's time.
func runTranspose(scale Scale) (*Result, error) {
	res := &Result{ID: "E18/transpose", Title: "matrix transposition under unit chip capacity", Source: "Section 1 (task list), Section 4"}
	var (
		d, logM, l, k int
		chipCap       float64
		maxRounds     int
	)
	if scale == Paper {
		d, logM, l, k = 12, 4, 3, 4
		chipCap = 128.0
		maxRounds = 400000
	} else {
		d, logM, l, k = 6, 2, 3, 2
		chipCap = 8.0
		maxRounds = 100000
	}
	perm, err := netsim.Transpose(d)
	if err != nil {
		return nil, err
	}

	cube, err := netsim.BuildHypercube(d, logM, chipCap)
	if err != nil {
		return nil, err
	}
	resC, err := netsim.RunPermutation(cube, 3, perm, maxRounds)
	if err != nil {
		return nil, err
	}

	w := superipg.HSN(l, nucleus.Hypercube(k))
	g, err := w.Build()
	if err != nil {
		return nil, err
	}
	hsnNet, err := netsim.BuildSuperIPG(w, g, chipCap, nil)
	if err != nil {
		return nil, err
	}
	// Node ids are addresses, so the address-space permutation applies
	// as it stands.
	resH, err := netsim.RunPermutation(hsnNet, 3, perm, maxRounds)
	if err != nil {
		return nil, err
	}

	tb := analysis.NewTable("Matrix transposition (address-halves swap), equal chips",
		"network", "packets", "completion rounds", "off-chip hops")
	tb.AddRow(cube.Name, resC.Stats.Delivered, resC.Rounds, resC.Stats.OffChipHops)
	tb.AddRow(hsnNet.Name, resH.Stats.Delivered, resH.Rounds, resH.Stats.OffChipHops)
	res.addTable(tb)

	if resC.Stats.Delivered != resH.Stats.Delivered {
		return nil, fmt.Errorf("packet counts differ: %d vs %d", resC.Stats.Delivered, resH.Stats.Delivered)
	}
	speedup := float64(resC.Rounds) / float64(resH.Rounds)
	// Bisection-bandwidth prediction: 2.13x at l=3 with large M; the exact
	// gain depends on how evenly the permutation loads the links, so accept
	// a broad band around it.
	res.check("HSN completes transposition faster", "roughly the B_B ratio (~2x)",
		fmt.Sprintf("%.2fx speedup", speedup), speedup > 1.3 && speedup < 3.5)
	res.check("HSN uses fewer off-chip transmissions", "fewer intercluster hops per packet",
		fmt.Sprintf("%d < %d", resH.Stats.OffChipHops, resC.Stats.OffChipHops),
		resH.Stats.OffChipHops < resC.Stats.OffChipHops)
	return res, nil
}

// runIICost reproduces the end of Section 4.2: the ID-cost (intercluster
// degree x diameter) and II-cost (intercluster degree x intercluster
// diameter) comparisons "demonstrate the superiority of super-IPGs".
func runIICost(scale Scale) (*Result, error) {
	res := &Result{ID: "E19/ii-cost", Title: "ID-cost and II-cost comparison", Source: "Section 4.2 (end)"}
	k := 2
	cccD, bfD, band := 5, 4, 2
	torK, torSide := 8, 2
	if scale == Paper {
		k = 4
		// Butterfly bands of 2 levels keep its chips (a*2^a = 8 nodes)
		// comparable to the HSN's 16-node chips; wider bands would give
		// the butterfly disproportionately large chips and skew the
		// packaging-cost comparison.
		cccD, bfD, band = 8, 8, 2
		torK, torSide = 64, 4
	}

	type row struct {
		name             string
		icDeg            float64
		diam, icDiam     int
		idCost, iiCost   float64
		isSuper, isTorus bool
	}
	var rows []row

	// addRow appends one network's costs, given its diameter.
	addRow := func(name string, c *mcmp.Clustered, diam int, isSuper, isTorus bool) {
		icDeg := c.InterclusterDegree()
		icDiam, _ := c.InterclusterDistances()
		rows = append(rows, row{name, icDeg, diam, icDiam,
			mcmp.IDCost(icDeg, diam), mcmp.IICost(icDeg, icDiam), isSuper, isTorus})
	}
	diameter := func(g *graph.Graph) int {
		d, _, _ := graph.Distances(context.Background(), g) // Background is never cancelled
		return d
	}

	// HSN(3,Q_k).
	w := superipg.HSN(3, nucleus.Hypercube(k))
	g, err := w.Build()
	if err != nil {
		return nil, err
	}
	cH, err := mcmp.ClusterSuperIPG(w, g)
	if err != nil {
		return nil, err
	}
	addRow(w.Name(), cH, diameter(w.Undirected(g)), true, false)

	// Hypercube with matching chips.
	h := topology.NewHypercube(3 * k)
	cQ, err := mcmp.ClusterHypercube(h, k)
	if err != nil {
		return nil, err
	}
	addRow(h.Name()+fmt.Sprintf("/M=%d", 1<<k), cQ, 3*k, false, false)

	// CCC.
	ccc := topology.NewCCC(cccD)
	cC, err := mcmp.ClusterCCC(ccc)
	if err != nil {
		return nil, err
	}
	addRow(fmt.Sprintf("CCC(%d)", cccD), cC, diameter(ccc.G), false, false)

	// Butterfly.
	bf := topology.NewButterfly(bfD)
	cB, err := mcmp.ClusterButterfly(bf, band)
	if err != nil {
		return nil, err
	}
	addRow(fmt.Sprintf("WBF(%d)/band %d", bfD, band), cB, diameter(bf.G), false, false)

	// Torus.
	tor := topology.NewTorus(torK, 2)
	cT, err := mcmp.ClusterTorus2D(tor, torSide)
	if err != nil {
		return nil, err
	}
	addRow(tor.Name(), cT, diameter(tor.G), false, true)

	tb := analysis.NewTable("ID-cost and II-cost (lower is better)",
		"network", "ic degree", "diameter", "ic diameter", "ID-cost", "II-cost")
	for _, r := range rows {
		tb.AddRow(r.name, r.icDeg, r.diam, r.icDiam, r.idCost, r.iiCost)
	}
	res.addTable(tb)

	hsnII := rows[0].iiCost
	hsnID := rows[0].idCost
	for _, r := range rows[1:] {
		res.check(fmt.Sprintf("HSN II-cost below %s", r.name),
			"super-IPGs superior (Sec 4.2)",
			fmt.Sprintf("%.3g vs %.3g", hsnII, r.iiCost), hsnII < r.iiCost+1e-9)
	}
	// ID-cost: the hypercube's is the natural comparison the paper draws.
	res.check("HSN ID-cost below hypercube's",
		"super-IPGs superior (Sec 4.2)",
		fmt.Sprintf("%.3g vs %.3g", hsnID, rows[1].idCost), hsnID < rows[1].idCost)
	return res, nil
}
