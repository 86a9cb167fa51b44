// Command ipgsim drives the packet-level network simulator on the paper's
// network families and workloads.
//
// Usage examples:
//
//	ipgsim -net hsn -l 3 -nucleus q4 -workload random -rate 0.5
//	ipgsim -net hypercube -dim 12 -logm 4 -workload sweep
//	ipgsim -net hsn -l 3 -nucleus q3 -workload te
//	ipgsim -net torus -k 16 -side 4 -workload transpose
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"ipg/internal/fault"
	"ipg/internal/ist"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

func main() {
	var (
		netName  = flag.String("net", "hsn", "network: hsn|hypercube|torus")
		l        = flag.Int("l", 3, "super-symbols (hsn)")
		nucName  = flag.String("nucleus", "q2", "nucleus: qK (hsn)")
		dim      = flag.Int("dim", 8, "dimension (hypercube)")
		logm     = flag.Int("logm", 2, "log2 nodes/chip (hypercube)")
		k        = flag.Int("k", 8, "radix (torus)")
		side     = flag.Int("side", 2, "chip side (torus)")
		chipCap  = flag.Float64("chipcap", 8.0, "off-chip budget per chip, packets/round")
		workload = flag.String("workload", "random", "workload: random|sweep|te|transpose")
		rate     = flag.Float64("rate", 0.2, "injection rate, packets/node/round (random)")
		warm     = flag.Int("warmup", 150, "warmup rounds")
		measure  = flag.Int("measure", 300, "measured rounds")
		seed     = flag.Int64("seed", 1, "PRNG seed")

		faults    = flag.Int("faults", 0, "failures injected before the run (0 = healthy network)")
		fmode     = flag.String("fmode", "node", "failure mode: node|link|chip")
		fseed     = flag.Int64("fseed", 1, "failure sample seed")
		frouting  = flag.String("frouting", "aware", "degraded routing: aware|oblivious")
		multipath = flag.Int("multipath", 0, "route over k independent spanning trees with alive-path fallback (0 = off)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usageError("unexpected arguments: %v", flag.Args())
	}
	validateFlags(*netName, *nucName, *workload, *rate, *chipCap, *warm, *measure)
	fspec := validateFaultFlags(*faults, *fmode, *fseed, *frouting)
	if *multipath < 0 {
		usageError("-multipath must be >= 0, got %d", *multipath)
	}
	if *multipath > 0 && *frouting == "oblivious" {
		usageError("-multipath replaces the degraded routing policy; drop -frouting=oblivious")
	}

	net, logN, addrToNode, nodeToAddr := buildNet(*netName, *l, *nucName, *dim, *logm, *k, *side, *chipCap)
	fmt.Printf("network: %s (%d nodes)\n", net.Name, net.N)
	net = degradeNet(net, fspec, *frouting, *multipath)
	net = installMultipath(net, *netName, *dim, *multipath)

	switch *workload {
	case "random":
		res, err := netsim.RunRandomUniform(net, *seed, *rate, *warm, *measure)
		fail(err)
		fmt.Printf("offered %.3f, accepted %.3f packets/node/round; latency %.2f rounds\n",
			res.Rate, res.Accepted, res.Latency)
		fmt.Printf("off-chip transmissions/packet: %.3f; saturated: %v\n",
			res.Stats.OffChipPerPacket(), res.Saturated)
		printFaultStats(fspec, res.Stats)
	case "sweep":
		best, trace, err := netsim.SaturationThroughput(net, *seed, *rate, 100**rate, *warm, *measure)
		fail(err)
		fmt.Printf("%-8s %-10s %-10s %s\n", "rate", "accepted", "latency", "saturated")
		for _, r := range trace {
			fmt.Printf("%-8.3f %-10.3f %-10.2f %v\n", r.Rate, r.Accepted, r.Latency, r.Saturated)
		}
		fmt.Printf("saturation throughput: %.3f packets/node/round\n", best)
	case "te":
		res, err := netsim.RunTotalExchange(net, *seed, 1<<22)
		fail(err)
		fmt.Printf("total exchange: %d packets in %d rounds\n", res.Stats.Delivered, res.Rounds)
		fmt.Printf("off-chip transmissions: %d (%.3f per packet)\n",
			res.Stats.OffChipHops, res.Stats.OffChipPerPacket())
		printFaultStats(fspec, res.Stats)
	case "transpose":
		if logN%2 != 0 {
			fail(fmt.Errorf("transpose needs an even number of address bits, network has %d", logN))
		}
		if 1<<logN != net.N {
			fail(fmt.Errorf("transpose needs a power-of-two node count, network has %d", net.N))
		}
		perm, err := netsim.Transpose(logN)
		fail(err)
		if addrToNode != nil {
			// Map the address-space permutation onto simulator node ids.
			mapped := make([]int32, net.N)
			for v := 0; v < net.N; v++ {
				mapped[v] = addrToNode[perm[nodeToAddr[v]]]
			}
			perm = mapped
		}
		res, err := netsim.RunPermutation(net, *seed, perm, 1<<22)
		fail(err)
		fmt.Printf("transpose: %d packets in %d rounds; %d off-chip transmissions\n",
			res.Stats.Delivered, res.Rounds, res.Stats.OffChipHops)
		printFaultStats(fspec, res.Stats)
	default:
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
}

// validateFaultFlags parses the fault flags into a spec, or nil when the
// run is on a healthy network.
func validateFaultFlags(faults int, fmode string, fseed int64, frouting string) *fault.Spec {
	if faults < 0 {
		usageError("-faults must be >= 0, got %d", faults)
	}
	mode, err := fault.ParseMode(fmode)
	if err != nil {
		usageError("%v", err)
	}
	if mode == fault.Adversarial {
		usageError("adversarial faults target graph cuts and have no port-level analogue; use ipgtool's degraded metrics instead")
	}
	if frouting != "aware" && frouting != "oblivious" {
		usageError("-frouting must be aware or oblivious, got %q", frouting)
	}
	if faults == 0 {
		return nil
	}
	return &fault.Spec{Mode: mode, Count: faults, Seed: fseed}
}

// degradeNet applies the fault spec (if any) to the built network and
// installs the fault-aware router when requested.  A pending multipath
// router (installed right after) supersedes the routing policy here.
func degradeNet(net *netsim.Network, spec *fault.Spec, frouting string, multipath int) *netsim.Network {
	if spec == nil {
		return net
	}
	dnet, sum, err := netsim.Degrade(net, *spec)
	fail(err)
	routing := frouting
	if multipath > 0 {
		routing = fmt.Sprintf("multipath(%d)", multipath)
	} else if frouting == "aware" {
		far, err := netsim.NewFaultAwareRouter(dnet)
		fail(err)
		dnet.Router = far
	}
	fmt.Printf("faults: mode=%s seed=%d routing=%s; dead nodes %d, links %d, chips %d\n",
		sum.Mode, spec.Seed, routing, len(sum.DeadNodes), len(sum.DeadLinks), len(sum.DeadChips))
	return dnet
}

// installMultipath replaces the network's router with the independent
// spanning tree multipath router: the closed-form k <= dim family on
// the hypercube, the generic 2-IST family elsewhere.  It applies to
// healthy and degraded networks alike (on a healthy network every pair
// rides tree 0, so results match minimal routing).
func installMultipath(net *netsim.Network, netName string, dim, k int) *netsim.Network {
	if k <= 0 {
		return net
	}
	var src netsim.TreeSource
	if netName == "hypercube" {
		if k > dim {
			k = dim
		}
		kk := k
		src = func(dst int) (*ist.Trees, error) { return ist.BuildHypercube(dim, dst, kk) }
	} else {
		if k > ist.GenericMaxTrees {
			k = ist.GenericMaxTrees
		}
		src = netsim.GenericTreeSource(net, k)
	}
	mpr, err := netsim.NewMultipathRouter(net, src)
	fail(err)
	net.Router = mpr
	fmt.Printf("multipath: %d independent trees; pairs: %d tree, %d fallback, %d unreachable\n",
		k, mpr.TreePairs.Load(), mpr.FallbackPairs.Load(), mpr.UnreachablePairs.Load())
	return net
}

// printFaultStats reports the degraded-run packet accounting; on a
// healthy run it prints nothing.
func printFaultStats(spec *fault.Spec, st netsim.Stats) {
	if spec == nil {
		return
	}
	fmt.Printf("injected %d = delivered %d + dropped %d + in-flight %d; misroute retries %d\n",
		st.Injected, st.Delivered, st.Dropped, st.Injected-st.Delivered-st.Dropped, st.Retried)
}

// simFamilyParams maps each simulable family to the parameter flags it
// consumes; providing a flag the family ignores (e.g. `-net hypercube
// -nucleus q4`) is a usage error rather than a silent no-op.
var simFamilyParams = map[string]map[string]bool{
	"hsn":       {"l": true, "nucleus": true},
	"hypercube": {"dim": true, "logm": true},
	"torus":     {"k": true, "side": true},
}

// validateFlags rejects invalid flag combinations with a usage error and
// exit code 2 before any network is built.
func validateFlags(netName, nucName, workload string, rate, chipCap float64, warm, measure int) {
	allowed, ok := simFamilyParams[netName]
	if !ok {
		usageError("unknown network %q (known: hsn, hypercube, torus)", netName)
	}
	paramFlags := map[string]bool{
		"l": true, "nucleus": true, "dim": true, "logm": true, "k": true, "side": true,
	}
	flag.Visit(func(f *flag.Flag) {
		if paramFlags[f.Name] && !allowed[f.Name] {
			usageError("flag -%s does not apply to net %q", f.Name, netName)
		}
	})
	if netName == "hsn" {
		// The simulator's HSN router needs a hypercube nucleus.
		kk, err := strconv.Atoi(strings.TrimPrefix(nucName, "q"))
		if !strings.HasPrefix(nucName, "q") || err != nil || kk < 1 {
			usageError("ipgsim supports only hypercube nuclei (qK), got %q", nucName)
		}
	}
	switch workload {
	case "random", "sweep", "te", "transpose":
	default:
		usageError("unknown workload %q (random|sweep|te|transpose)", workload)
	}
	// NaN fails every comparison, so "positive and finite" is spelled
	// !(x > 0) rather than x <= 0.
	if !(rate > 0) || math.IsInf(rate, 0) {
		usageError("-rate must be positive and finite, got %v", rate)
	}
	if !(chipCap > 0) || math.IsInf(chipCap, 0) {
		usageError("-chipcap must be positive and finite, got %v", chipCap)
	}
	if warm < 0 || measure <= 0 {
		usageError("-warmup must be >= 0 and -measure > 0, got %d/%d", warm, measure)
	}
}

// buildNet returns the simulated network, its address-bit count, and (for
// networks whose node ids are not addresses) the address<->node maps.
func buildNet(name string, l int, nucName string, dim, logm, k, side int, chipCap float64) (*netsim.Network, int, []int32, []int32) {
	switch name {
	case "hypercube":
		net, err := netsim.BuildHypercube(dim, logm, chipCap)
		fail(err)
		return net, dim, nil, nil
	case "torus":
		net, err := netsim.BuildTorus2D(k, side, chipCap)
		fail(err)
		logN := 0
		for 1<<logN < k*k {
			logN++
		}
		return net, logN, nil, nil
	case "hsn":
		kk, err := strconv.Atoi(strings.TrimPrefix(nucName, "q"))
		fail(err)
		w := superipg.HSN(l, nucleus.Hypercube(kk))
		g, err := w.Build()
		fail(err)
		net, err := netsim.BuildSuperIPG(w, g, chipCap, nil)
		fail(err)
		addrToNode := make([]int32, g.N())
		nodeToAddr := make([]int32, g.N())
		for v := 0; v < g.N(); v++ {
			a, err := w.AddressOf(g.Label(v))
			fail(err)
			//lint:ignore indextrunc node ids and addresses are < g.N() <= ipg.MaxNodes (1<<22)
			addrToNode[a] = int32(v)
			//lint:ignore indextrunc node ids and addresses are < g.N() <= ipg.MaxNodes (1<<22)
			nodeToAddr[v] = int32(a)
		}
		return net, l * kk, addrToNode, nodeToAddr
	}
	fail(fmt.Errorf("unknown network %q", name))
	return nil, 0, nil, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ipgsim: "+format+"\n", args...)
	fmt.Fprintf(os.Stderr, "run `ipgsim -h` for usage\n")
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipgsim: %v\n", err)
		os.Exit(1)
	}
}
