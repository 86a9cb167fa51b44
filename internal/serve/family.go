package serve

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ipg/internal/mcmp"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
	"ipg/internal/topo"
	"ipg/internal/topology"
)

// family is one entry of the family table: everything the serving layer,
// ipgtool and ipgsim know about one network family, so that adding a
// family is one entry in familyTable.
type family struct {
	// params is the set of parameters the family consumes: a request
	// setting any other is rejected, and the canonical key holds exactly
	// these.  check validates their ranges on every request without
	// building anything, so it must not allocate.
	params Provided
	check  func(p Params) error

	// super constructs a super-IPG from l super-symbols over a nucleus;
	// nil for the baseline MCMP networks.
	super func(l int, nuc *nucleus.Nucleus) *superipg.Network

	// A baseline's rank/unrank codec, which also gives its node count
	// before anything is built, with the implicit representation's name;
	// and its clustered arena with the chip-level bisection.
	codec func(p Params) (string, topo.Codec, error)
	arena func(p Params) (*mcmp.Clustered, []int8, error)

	// sim builds a materialized artifact's packet-level simulator
	// network; nil when the family has no simulator.
	sim func(a *Artifact, chipCap float64) (*netsim.Network, error)
}

// familyTable is the family table, keyed by the name requests use.
var familyTable = map[string]*family{
	"hsn":         superFamily(ProvL, sameL, superipg.HSN),
	"ring-cn":     superFamily(ProvL, sameL, superipg.RingCN),
	"complete-cn": superFamily(ProvL, sameL, superipg.CompleteCN),
	"sfn":         superFamily(ProvL, sameL, superipg.SFN),
	// RCC(r, G) is HSN(2, G^(2^(r-1))): a label holds 2^r nucleus states.
	"rcc": superFamily(ProvL, func(r int) int { return 1 << r }, superipg.RCC),
	// HCN(G) is HSN(2, G) by definition, so l is not a parameter.
	"hcn": superFamily(0, func(int) int { return 2 }, func(_ int, nuc *nucleus.Nucleus) *superipg.Network {
		w := superipg.HSN(2, nuc)
		w.Family = "HCN"
		return w
	}),

	"hypercube": {
		params: ProvDim | ProvLogM,
		check: func(p Params) error {
			// Sizes above the arena cap (topology.MaxNodes) are served
			// through the codec, whose vertex ids are int32.
			if p.Dim < 1 || p.Dim > 30 {
				return fmt.Errorf("hypercube dim %d outside [1, 30]", p.Dim)
			}
			if p.LogM < 0 || p.LogM >= p.Dim {
				return fmt.Errorf("logm %d outside [0, dim) for Q%d: nodes per chip must be a power of two dividing the network", p.LogM, p.Dim)
			}
			return nil
		},
		codec: func(p Params) (string, topo.Codec, error) {
			c, err := topo.NewHypercubeCodec(p.Dim)
			return fmt.Sprintf("Q%d", p.Dim), c, err
		},
		arena: func(p Params) (*mcmp.Clustered, []int8, error) {
			c, err := mcmp.ClusterHypercube(topology.NewHypercube(p.Dim), p.LogM)
			if err != nil {
				return nil, nil, err
			}
			return c, mcmp.HypercubeBisection(c), nil
		},
		sim: func(a *Artifact, chipCap float64) (*netsim.Network, error) {
			return netsim.BuildHypercube(a.Params.Dim, a.Params.LogM, chipCap)
		},
	},
	"torus": {
		params: ProvK | ProvSide,
		check: func(p Params) error {
			// 46340^2 is the largest square within int32 vertex ids.
			if p.K < 2 || p.K > 46340 {
				return fmt.Errorf("torus radix k = %d outside [2, 46340]", p.K)
			}
			if p.Side < 1 || p.Side > p.K || p.K%p.Side != 0 {
				return fmt.Errorf("chip side %d must be in [1, k] and divide k = %d", p.Side, p.K)
			}
			return nil
		},
		codec: func(p Params) (string, topo.Codec, error) {
			c, err := topo.NewTorusCodec(p.K, 2)
			return fmt.Sprintf("%d-ary 2-cube", p.K), c, err
		},
		arena: func(p Params) (*mcmp.Clustered, []int8, error) {
			// The bisection halves the chip columns; the codec has no chips.
			if chips := p.K / p.Side; chips%2 != 0 {
				return nil, nil, badRequest("torus chip bisection needs an even number of chips per row, got k/side = %d", chips)
			}
			tr := topology.NewTorus(p.K, 2)
			c, err := mcmp.ClusterTorus2D(tr, p.Side)
			if err != nil {
				return nil, nil, err
			}
			return c, mcmp.Torus2DBisection(tr, c, p.Side), nil
		},
		sim: func(a *Artifact, chipCap float64) (*netsim.Network, error) {
			return netsim.BuildTorus2D(a.Params.K, a.Params.Side, chipCap)
		},
	},
	"ccc": {
		params: ProvDim,
		check: func(p Params) error {
			// CCC(d) has d*2^d nodes; 26*2^26 < math.MaxInt32 < 27*2^27.
			// Neither the arena nor the codec serves CCC(2).
			if p.Dim < 3 || p.Dim > 26 {
				return fmt.Errorf("ccc dim %d outside [3, 26]", p.Dim)
			}
			return nil
		},
		codec: func(p Params) (string, topo.Codec, error) {
			c, err := topo.NewCCCCodec(p.Dim)
			return fmt.Sprintf("CCC(%d)", p.Dim), c, err
		},
		arena: func(p Params) (*mcmp.Clustered, []int8, error) {
			cc := topology.NewCCC(p.Dim)
			c, err := mcmp.ClusterCCC(cc)
			if err != nil {
				return nil, nil, err
			}
			return c, mcmp.CCCBisection(cc, c), nil
		},
	},
	"butterfly": {
		params: ProvDim | ProvBand,
		check: func(p Params) error {
			if p.Dim < 2 || p.Dim > 26 {
				return fmt.Errorf("butterfly dim %d outside [2, 26]", p.Dim)
			}
			if p.Band < 1 || p.Band > p.Dim || p.Dim%p.Band != 0 {
				return fmt.Errorf("band %d must be in [1, dim] and divide dim = %d", p.Band, p.Dim)
			}
			return nil
		},
		codec: func(p Params) (string, topo.Codec, error) {
			c, err := topo.NewButterflyCodec(p.Dim)
			return fmt.Sprintf("WBF(%d)", p.Dim), c, err
		},
		arena: func(p Params) (*mcmp.Clustered, []int8, error) {
			// The bisection halves the level bands; the codec has no chips.
			if bands := p.Dim / p.Band; bands%2 != 0 {
				return nil, nil, badRequest("butterfly chip bisection needs an even number of level bands, got dim/band = %d", bands)
			}
			bf := topology.NewButterfly(p.Dim)
			c, err := mcmp.ClusterButterfly(bf, p.Band)
			if err != nil {
				return nil, nil, err
			}
			side, err := mcmp.ButterflyBisection(bf, c, p.Band)
			return c, side, err
		},
	},
}

func sameL(l int) int { return l }

// superFamily returns the table entry of a super-IPG family built by
// build.  A node label holds copies(l) nucleus states, so the node count
// is M^copies(l).  Every super-IPG simulates with the router
// netsim.BuildSuperIPG picks for its family.
func superFamily(params Provided, copies func(l int) int, build func(l int, nuc *nucleus.Nucleus) *superipg.Network) *family {
	f := &family{params: params | ProvNucleus, super: build}
	f.check = func(p Params) error {
		if params&ProvL != 0 && (p.L < 2 || p.L > 20) {
			// The Theorem 4.1/4.3 arrangement BFS is bounded to l <= 20.
			return fmt.Errorf("l = %d outside [2, 20]", p.L)
		}
		nuc, err := parseNucleusCached(p.Nucleus)
		if err != nil {
			return err
		}
		// Overflow-guard the node count; label-level metrics work at any
		// size, but the count itself must stay a sane int.  M >= 2, so the
		// loop ends within 41 steps.
		n := 1
		for i := copies(p.L); i > 0; i-- {
			if n > (1<<40)/nuc.M {
				return fmt.Errorf("%s over %d copies of nucleus %s has more than 2^40 nodes", p.Net, copies(p.L), p.Nucleus)
			}
			n *= nuc.M
		}
		return nil
	}
	f.sim = func(a *Artifact, chipCap float64) (*netsim.Network, error) {
		return netsim.BuildSuperIPG(a.W, a.G, chipCap, nil)
	}
	return f
}

// lookupFamily returns the table entry for net.
func lookupFamily(net string) (*family, error) {
	if f := familyTable[net]; f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("unknown network %q (known: %s)", net, strings.Join(Families(), ", "))
}

// Families returns the known family names, sorted.
func Families() []string {
	out := make([]string, 0, len(familyTable))
	for name := range familyTable {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SimFamilies returns the families with a packet-level simulator, sorted:
// the ones /v1/simulate and ipgsim serve.
func SimFamilies() []string {
	return slices.DeleteFunc(Families(), func(name string) bool { return familyTable[name].sim == nil })
}

// IsSuperFamily reports whether net names a super-IPG family.
func IsSuperFamily(net string) bool {
	f := familyTable[net]
	return f != nil && f.super != nil
}

// FamilyFlags registers -net and the family parameters that some family
// in nets consumes as flags on fs, with the shared Defaults and help text
// drawn from the family table.  The returned function reads the parsed
// flags back as checked Params: -net must name one of nets, and a flag set
// for a family that does not consume it is an error, as on a request.
func FamilyFlags(fs *flag.FlagSet, nets []string) func() (Params, error) {
	p := Defaults()
	fs.StringVar(&p.Net, "net", p.Net, "network family: "+strings.Join(nets, "|"))
	for _, pn := range provNames {
		var users []string
		for _, name := range nets {
			if familyTable[name].params&pn.bit != 0 {
				users = append(users, name)
			}
		}
		if len(users) == 0 {
			continue
		}
		usage := fmt.Sprintf("%s (%s)", pn.usage, strings.Join(users, ", "))
		if dst := p.intParam(pn.bit); dst != nil {
			fs.IntVar(dst, pn.name, *dst, usage)
		} else {
			fs.StringVar(&p.Nucleus, pn.name, p.Nucleus, usage)
		}
	}
	return func() (Params, error) {
		if !slices.Contains(nets, p.Net) {
			return p, fmt.Errorf("-net must be one of %s, got %q", strings.Join(nets, ", "), p.Net)
		}
		var prov Provided
		fs.Visit(func(f *flag.Flag) {
			if bit, ok := provBit(f.Name); ok {
				prov |= bit
			}
		})
		return p, p.CheckProvided(prov)
	}
}
