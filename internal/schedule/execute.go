package schedule

import (
	"fmt"

	"ipg/internal/emul"
	"ipg/internal/ipg"
	"ipg/internal/perm"
)

// Execute runs the schedule on a materialized super-IPG: every node starts
// one packet per HPN dimension, the scheduled transmissions move the
// packets along the generator links step by step, and after T steps every
// dimension-j packet originating at node v must sit exactly on v's
// dimension-j HPN neighbor.  This verifies Theorem 3.8 end to end — not
// just the resource constraints (see Verify) but the actual all-port data
// movement, including the self-loop steps where a generator fixes a node's
// label and no physical transmission occurs.
func (s *Schedule) Execute(g *ipg.Graph) error {
	if g.N() == 0 {
		return fmt.Errorf("schedule: empty graph")
	}
	nd := s.L * s.N
	n := g.N()
	// pos[j*n+v] is the current node of the dimension-(j+1) packet that
	// originated at node v; one flat array instead of a row per dimension.
	pos := make([]int32, nd*n)
	for j := 0; j < nd; j++ {
		for v := 0; v < n; v++ {
			//lint:ignore indextrunc node ids are < g.N() <= ipg.MaxNodes (1<<22)
			pos[j*n+v] = int32(v)
		}
	}
	move := func(j, gen int) {
		p := pos[j*n : (j+1)*n]
		for v := range p {
			p[v] = g.Port(int(p[v]), gen)
		}
	}
	for t := 1; t <= s.T; t++ {
		for j := 0; j < nd; j++ {
			switch t {
			case s.Fwd[j]:
				move(j, s.FwdGen[j])
			case s.Mid[j]:
				move(j, s.MidGen[j])
			case s.Ret[j]:
				move(j, s.RetGen[j])
			}
		}
	}
	var lbl perm.Label
	for j := 0; j < nd; j++ {
		for v := 0; v < g.N(); v++ {
			lbl = g.LabelInto(v, lbl)
			want, err := emul.HPNNeighbor(s.Net, lbl, j+1)
			if err != nil {
				return err
			}
			wantID := g.NodeID(want)
			if wantID < 0 {
				return fmt.Errorf("schedule: HPN neighbor of node %d missing from graph", v)
			}
			if int(pos[j*g.N()+v]) != wantID {
				return fmt.Errorf("schedule: dim-%d packet from node %d landed on %d, want %d",
					j+1, v, pos[j*g.N()+v], wantID)
			}
		}
	}
	return nil
}
