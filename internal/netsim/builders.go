package netsim

//lint:file-ignore ctxflow network construction runs once per request on node counts capped by serve's SimMaxNodes check (and checkNodeCount) before any build starts

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// This file assembles simulated networks under the unit chip capacity
// model: each chip has off-chip budget chipCapacity (in packets per round),
// split evenly over its off-chip directed links; on-chip links are
// effectively infinite.

// UniformCapacity overwrites every present port's capacity with c,
// switching a network to the unit link capacity model of Section 3 (with
// c = 1).  Cluster assignments are kept for off-chip accounting.
func UniformCapacity(net *Network, c float64) {
	for u := 0; u < net.N; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 {
				net.Ports.SetCap(u, p, c)
			}
		}
	}
}

// BuildHypercube returns a d-cube with 2^logM-node chips (low address bits
// on-chip).  Port b flips bit b.
func BuildHypercube(d, logM int, chipCapacity float64) (*Network, error) {
	if logM < 0 || logM >= d {
		return nil, fmt.Errorf("netsim: logM %d out of range for Q%d", logM, d)
	}
	n := 1 << d
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	offLinksPerChip := (1 << logM) * (d - logM) // M nodes x off-chip degree
	offCap := chipCapacity / float64(offLinksPerChip)
	pm, err := topo.NewUniformPortMap(n, d)
	if err != nil {
		return nil, err
	}
	clusterOf := make([]int32, n)
	for v := 0; v < n; v++ {
		clusterOf[v] = int32(v >> logM)
		for b := 0; b < d; b++ {
			pm.SetPort(v, b, int32(v^1<<b))
			if b < logM {
				pm.SetCap(v, b, OnChipCapacity)
			} else {
				pm.SetCap(v, b, offCap)
			}
		}
	}
	return &Network{
		Name:      fmt.Sprintf("Q%d/M=%d", d, 1<<logM),
		N:         n,
		Ports:     pm,
		ClusterOf: clusterOf,
		Router:    HypercubeRouter{D: d},
	}, nil
}

// BuildTorus2D returns the k-ary 2-cube with side x side chips.  Ports:
// 0 = +x, 1 = -x, 2 = +y, 3 = -y.
func BuildTorus2D(k, side int, chipCapacity float64) (*Network, error) {
	if side < 1 || k%side != 0 || k/side < 2 {
		return nil, fmt.Errorf("netsim: chip side %d invalid for k=%d", side, k)
	}
	n := k * k
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	chipsPerRow := k / side
	// Each chip has 4*side off-chip undirected links, i.e. 4*side outgoing
	// off-chip arcs.
	offCap := chipCapacity / float64(4*side)
	pm, err := topo.NewUniformPortMap(n, 4)
	if err != nil {
		return nil, err
	}
	clusterOf := make([]int32, n)
	chipOf := func(x, y int) int32 { return int32((y/side)*chipsPerRow + x/side) }
	for v := 0; v < n; v++ {
		x, y := v%k, v/k
		clusterOf[v] = chipOf(x, y)
		nb := [4][2]int{
			{(x + 1) % k, y}, {(x - 1 + k) % k, y},
			{x, (y + 1) % k}, {x, (y - 1 + k) % k},
		}
		for p, xy := range nb {
			pm.SetPort(v, p, int32(xy[1]*k+xy[0]))
			if chipOf(xy[0], xy[1]) == clusterOf[v] {
				pm.SetCap(v, p, OnChipCapacity)
			} else {
				pm.SetCap(v, p, offCap)
			}
		}
	}
	return &Network{
		Name:      fmt.Sprintf("%d-ary 2-cube/M=%d", k, side*side),
		N:         n,
		Ports:     pm,
		ClusterOf: clusterOf,
		Router:    TorusRouter{K: k, Dims: 2},
	}, nil
}

// BuildSuperIPG returns a simulated super-IPG with one nucleus per chip.
// Ports coincide with generator indices; generator self-loops become
// absent ports.  A non-nil router is used as given; nil picks the
// family's router: the hierarchical HSNRouter for the swap families (HSN,
// HCN, RCC) and the all-pairs TableRouter, built on the finished port
// map, for every other family.  Over a vertex-transitive nucleus the
// other families also get the orbit maps that let a TableRouter, built
// here or later by NewTableRouter, keep one row per cluster.
func BuildSuperIPG(w *superipg.Network, g *ipg.Graph, chipCapacity float64, router Router) (*Network, error) {
	if err := checkNodeCount(g.N()); err != nil {
		return nil, err
	}
	clusterOf, _ := w.Clusters(g)
	// Count off-chip out-arcs per chip and check uniformity.
	arcs := make(map[int32]int)
	for v := 0; v < g.N(); v++ {
		for gi := w.NumNucGens(); gi < len(w.Gens()); gi++ {
			u := g.Neighbor(v, gi)
			if u != v && clusterOf[u] != clusterOf[v] {
				arcs[clusterOf[v]]++
			}
		}
	}
	// Each chip splits its budget over its own off-chip arcs.  Swap
	// families have uniform counts; CN families have slightly fewer arcs
	// on "diagonal" clusters (labels with coinciding groups turn some
	// super-generator actions into self-loops), whose links are then
	// correspondingly wider.
	offCap := make(map[int32]float64, len(arcs))
	for chip, cnt := range arcs {
		offCap[chip] = chipCapacity / float64(cnt)
	}
	ng := len(w.Gens())
	pm, err := topo.NewUniformPortMap(g.N(), ng)
	if err != nil {
		return nil, err
	}
	for v := 0; v < g.N(); v++ {
		for gi := 0; gi < ng; gi++ {
			u := g.Neighbor(v, gi)
			if u == v {
				// Absent port (self-loop); capacity value is never consulted.
				pm.SetCap(v, gi, 1)
				continue
			}
			pm.SetPort(v, gi, int32(u))
			if clusterOf[u] == clusterOf[v] {
				pm.SetCap(v, gi, OnChipCapacity)
			} else {
				pm.SetCap(v, gi, offCap[clusterOf[v]])
			}
		}
	}
	net := &Network{
		Name:      w.Name(),
		N:         g.N(),
		Ports:     pm,
		ClusterOf: clusterOf,
		Router:    router,
	}
	if !swapFamily(w) && w.Nuc.VertexTransitive() && g.N() <= maxTableNodes {
		net.orbit = superOrbits(w, g, pm)
	}
	if net.Router == nil {
		if swapFamily(w) {
			net.Router, err = NewHSNRouter(w, g)
		} else {
			net.Router, err = NewTableRouter(net)
		}
		if err != nil {
			return nil, err
		}
	}
	return net, nil
}
