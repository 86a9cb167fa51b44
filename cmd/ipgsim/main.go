// Command ipgsim drives the packet-level network simulator on the paper's
// network families and workloads.  It builds each network through the
// serving layer, so a random, te or transpose run answers exactly as
// ipgd's /v1/simulate does for the same seed; -workload sweep and
// -multipath are ipgsim's own.
//
// Usage examples:
//
//	ipgsim -net hsn -l 3 -nucleus q4 -workload random -rate 0.5
//	ipgsim -net hypercube -dim 12 -logm 4 -workload sweep
//	ipgsim -net hsn -l 3 -nucleus q3 -workload te
//	ipgsim -net torus -k 16 -side 4 -workload transpose
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"ipg/internal/fault"
	"ipg/internal/ist"
	"ipg/internal/netsim"
	"ipg/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError marks a command-line mistake: exit code 2.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// run is the command with its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipgsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := serve.FamilyFlags(fs, serve.SimFamilies())
	var (
		chipCap  = fs.Float64("chipcap", 8.0, "off-chip budget per chip, packets/round")
		workload = fs.String("workload", "random", "workload: random|sweep|te|transpose")
		rate     = fs.Float64("rate", 0.2, "injection rate, packets/node/round (random)")
		warm     = fs.Int("warmup", 150, "warmup rounds")
		measure  = fs.Int("measure", 300, "measured rounds")
		seed     = fs.Int64("seed", 1, "PRNG seed")

		faults    = fs.Int("faults", 0, "failures injected before the run (0 = healthy network)")
		fmode     = fs.String("fmode", "node", "failure mode: node|link|chip")
		fseed     = fs.Int64("fseed", 1, "failure sample seed")
		frouting  = fs.String("frouting", "aware", "degraded routing: aware|oblivious")
		multipath = fs.Int("multipath", 0, "route over k independent spanning trees with alive-path fallback (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := func() error {
		if fs.NArg() > 0 {
			return usagef("unexpected arguments: %v", fs.Args())
		}
		p, err := params()
		if err != nil {
			return usageError{err}
		}
		sim := serve.Simulation{
			Workload: *workload, Seed: *seed, Rate: *rate, Warmup: *warm, Measure: *measure,
			ChipCap: *chipCap, Routing: *frouting,
		}
		if sim.Faults, err = validateFlags(sim, *faults, *fmode, *fseed, *multipath); err != nil {
			return err
		}
		if *multipath > 0 {
			sim.Routing = "oblivious" // the multipath router replaces the routing policy
		}
		ctx := context.Background()
		a, err := serve.BuildArtifact(ctx, p, 0) // 0: materialize up to the arena cap
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "network: %s (%d nodes)\n", a.Name, a.N)
		net, echo, err := sim.Network(a)
		if err != nil {
			return err
		}
		if echo != nil {
			routing := echo.Routing
			if *multipath > 0 {
				routing = fmt.Sprintf("multipath(%d)", *multipath)
			}
			fmt.Fprintf(stdout, "faults: mode=%s seed=%d routing=%s; dead nodes %d, links %d, chips %d\n",
				echo.Mode, echo.Seed, routing, echo.DeadNodes, echo.DeadLinks, echo.DeadChips)
		}
		if *multipath > 0 {
			if net, err = installMultipath(stdout, a, net, *multipath); err != nil {
				return err
			}
		}
		if sim.Workload == "sweep" {
			best, trace, err := netsim.SaturationThroughput(net, sim.Seed, sim.Rate, 100*sim.Rate, sim.Warmup, sim.Measure)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-8s %-10s %-10s %s\n", "rate", "accepted", "latency", "saturated")
			for _, r := range trace {
				fmt.Fprintf(stdout, "%-8.3f %-10.3f %-10.2f %v\n", r.Rate, r.Accepted, r.Latency, r.Saturated)
			}
			fmt.Fprintf(stdout, "saturation throughput: %.3f packets/node/round\n", best)
			return nil
		}
		resp, st, err := sim.Run(ctx, a, net)
		if err != nil {
			return err
		}
		switch sim.Workload {
		case "random":
			fmt.Fprintf(stdout, "offered %.3f, accepted %.3f packets/node/round; latency %.2f rounds\n",
				sim.Rate, resp.Accepted, resp.Latency)
			fmt.Fprintf(stdout, "off-chip transmissions/packet: %.3f; saturated: %v\n", resp.OffChip, *resp.Saturated)
		case "te":
			fmt.Fprintf(stdout, "total exchange: %d packets in %d rounds\n", resp.Delivered, resp.Rounds)
			fmt.Fprintf(stdout, "off-chip transmissions: %d (%.3f per packet)\n", st.OffChipHops, resp.OffChip)
		case "transpose":
			fmt.Fprintf(stdout, "transpose: %d packets in %d rounds; %d off-chip transmissions\n",
				resp.Delivered, resp.Rounds, st.OffChipHops)
		}
		if echo != nil {
			// The counts of a random run cover its measurement window only
			// (see serve.SimulateResponse), so no identity is printed.
			fmt.Fprintf(stdout, "packets: injected %d, delivered %d, dropped %d, in flight %d; misroute retries %d\n",
				st.Injected, st.Delivered, st.Dropped, st.InFlight, st.Retried)
		}
		return nil
	}()
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "ipgsim: %v\n", err)
	if errors.As(err, new(usageError)) {
		fmt.Fprintf(stderr, "run `ipgsim -h` for usage\n")
		return 2
	}
	return 1
}

// validateFlags rejects invalid workload, fault and multipath flags
// before any network is built, and returns the fault spec (Count 0 for a
// healthy run).
func validateFlags(sim serve.Simulation, faults int, fmode string, fseed int64, multipath int) (fault.Spec, error) {
	switch sim.Workload {
	case "random", "sweep", "te", "transpose":
	default:
		return fault.Spec{}, usagef("unknown workload %q (random|sweep|te|transpose)", sim.Workload)
	}
	// NaN fails every comparison, so "positive and finite" is spelled
	// !(x > 0) rather than x <= 0.
	if !(sim.Rate > 0) || math.IsInf(sim.Rate, 0) {
		return fault.Spec{}, usagef("-rate must be positive and finite, got %v", sim.Rate)
	}
	if !(sim.ChipCap > 0) || math.IsInf(sim.ChipCap, 0) {
		return fault.Spec{}, usagef("-chipcap must be positive and finite, got %v", sim.ChipCap)
	}
	if sim.Warmup < 0 || sim.Measure <= 0 {
		return fault.Spec{}, usagef("-warmup must be >= 0 and -measure > 0, got %d/%d", sim.Warmup, sim.Measure)
	}
	if faults < 0 {
		return fault.Spec{}, usagef("-faults must be >= 0, got %d", faults)
	}
	mode, err := fault.ParseMode(fmode)
	if err != nil {
		return fault.Spec{}, usageError{err}
	}
	if mode == fault.Adversarial {
		return fault.Spec{}, usagef("adversarial faults target graph cuts and have no port-level analogue; use ipgtool's degraded metrics instead")
	}
	if sim.Routing != "aware" && sim.Routing != "oblivious" {
		return fault.Spec{}, usagef("-frouting must be aware or oblivious, got %q", sim.Routing)
	}
	if multipath < 0 {
		return fault.Spec{}, usagef("-multipath must be >= 0, got %d", multipath)
	}
	if multipath > 0 && sim.Routing == "oblivious" {
		return fault.Spec{}, usagef("-multipath replaces the degraded routing policy; drop -frouting=oblivious")
	}
	return fault.Spec{Mode: mode, Count: faults, Seed: fseed}, nil
}

// installMultipath returns net routed by the independent spanning tree
// multipath router over the artifact's healthy topology: the closed-form
// k <= dim family on the hypercube, the generic 2-IST family elsewhere
// (Artifact.ISTrees).  It applies to healthy and degraded networks alike
// (on a healthy network every pair rides tree 0, so results match
// minimal routing).
func installMultipath(stdout io.Writer, a *serve.Artifact, net *netsim.Network, k int) (*netsim.Network, error) {
	k = min(k, a.MaxTrees())
	mpr, err := netsim.NewMultipathRouter(net, func(dst int) (*ist.Trees, error) {
		return a.ISTrees(context.Background(), dst, k)
	})
	if err != nil {
		return nil, err
	}
	routed := *net // a healthy net is the artifact's memoized network: leave it as it is
	routed.Router = mpr
	fmt.Fprintf(stdout, "multipath: %d independent trees; pairs: %d tree, %d fallback, %d unreachable\n",
		k, mpr.TreePairs.Load(), mpr.FallbackPairs.Load(), mpr.UnreachablePairs.Load())
	return &routed, nil
}
