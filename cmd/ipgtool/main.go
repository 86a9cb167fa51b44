// Command ipgtool builds interconnection networks from the paper's
// families and prints their structural and MCMP metrics.
//
// Usage examples:
//
//	ipgtool -net hsn -l 3 -nucleus q4          # HSN(3,Q4)
//	ipgtool -net complete-cn -l 4 -nucleus q2  # complete-CN(4,Q2)
//	ipgtool -net hcn -nucleus q5               # HCN(5,5)
//	ipgtool -net hypercube -dim 10 -logm 2     # 10-cube, 4-node chips
//	ipgtool -net torus -k 16 -side 4           # 16-ary 2-cube, 16-node chips
//	ipgtool -net hsn -l 4 -nucleus ghc:4,4     # HSN over GHC(4,4)
//	ipgtool -net hsn -l 4 -nucleus q3 -schedule  # print the Thm 3.8 schedule
//	ipgtool -net hsn -l 3 -nucleus q4 -json    # machine-readable metrics
//	ipgtool -net torus -k 2560 -json           # 6.5M nodes, implicit codec
//	ipgtool -net hypercube -dim 10 -impl implicit  # force the codec
//
// ipgtool prints the metrics document the ipgd daemon serves on
// /v1/metrics (see docs/serving.md), built by the same code: -json
// encodes it through the same encoder, and the default text mode renders
// the same document as a table, one row per field.  -impl selects the
// adjacency representation in both modes: "csr" forces materialization,
// "implicit" forces the rank/unrank codec (O(1) memory at any size),
// "auto" (the default) materializes up to the cap and goes implicit above
// it; the document's representation and bytes_per_vertex fields report
// the choice.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ipg/internal/analysis"
	"ipg/internal/perm"
	"ipg/internal/schedule"
	"ipg/internal/serve"
)

// materializeCap matches the ipgd default: larger instances are served
// through their codec, or with label-level metrics only.
const materializeCap = 1 << 16

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError marks a command-line mistake: exit code 2.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// run is the command with its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipgtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := serve.FamilyFlags(fs, serve.Families())
	var (
		sched    = fs.Bool("schedule", false, "print the all-port emulation schedule (Theorem 3.8; super-IPG families)")
		diameter = fs.Bool("diameter", false, "compute the exact graph diameter (a distance sweep)")
		dotFile  = fs.String("dot", "", "write the network (chips as clusters, off-chip links red) as Graphviz DOT to this file (super-IPG families)")
		jsonOut  = fs.Bool("json", false, "emit the machine-readable metrics document (same shape as ipgd's /v1/metrics)")
		implMode = fs.String("impl", "auto", "adjacency representation: csr|implicit|auto")
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
		if (*sched || *dotFile != "") && !serve.IsSuperFamily(p.Net) {
			return usagef("-schedule and -dot apply only to super-IPG families, not %q", p.Net)
		}
		if *jsonOut && (*sched || *dotFile != "") {
			return usagef("-json cannot be combined with -schedule or -dot")
		}
		a, err := build(p, *implMode)
		if err != nil {
			return err
		}
		if *dotFile != "" && !a.Materialized() {
			return usagef("-dot needs a materialized network; %s is served as %s", a.Name, a.Rep())
		}
		doc, err := serve.ComputeMetrics(context.Background(), a, *diameter)
		if err != nil {
			return err
		}
		if *jsonOut {
			return doc.WriteJSON(stdout)
		}
		if err := writeText(stdout, doc); err != nil {
			return err
		}
		if *dotFile != "" {
			if err := writeDOT(a, *dotFile); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote DOT to %s\n", *dotFile)
		}
		if *sched {
			s, err := schedule.Build(a.W)
			if err != nil {
				return err
			}
			if err := s.Verify(); err != nil {
				return err
			}
			_, avgU := s.Utilization()
			fmt.Fprintf(stdout, "\nall-port emulation schedule (Theorem 3.8), %d steps, %.1f%% link utilization:\n%s",
				s.T, 100*avgU, s.Render())
		}
		return nil
	}()
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "ipgtool: %v\n", err)
	if errors.As(err, new(usageError)) {
		fmt.Fprintf(stderr, "run `ipgtool -h` for usage\n")
		return 2
	}
	return 1
}

// build constructs the artifact in the representation -impl asks for.
func build(p serve.Params, impl string) (*serve.Artifact, error) {
	implicitOver := 0 // auto: implicit only above the cap
	switch impl {
	case "auto", "csr":
	case "implicit":
		// A switch point of one node forces every real instance through
		// its codec; families without one fall back and are rejected.
		implicitOver = 1
	default:
		return nil, usagef("-impl must be csr, implicit, or auto (got %q)", impl)
	}
	a, err := serve.BuildArtifactThreshold(context.Background(), p, materializeCap, implicitOver)
	switch {
	case err != nil:
		return nil, err
	case impl == "csr" && a.Rep() != serve.RepCSR:
		return nil, usagef("%s has %d nodes, above the materialization cap %d; -impl=csr does not apply (use implicit or auto)", a.Name, a.N, materializeCap)
	case impl == "implicit" && a.Rep() != serve.RepImplicit:
		return nil, usagef("%s has no implicit codec for this configuration; -impl=implicit does not apply", a.Name)
	}
	return a, nil
}

// writeText renders the metrics document as a table with one row per
// field, nested blocks as dotted names.  It walks the encoded document,
// so the table holds exactly the fields -json prints, in the same order.
func writeText(w io.Writer, doc *serve.MetricsDoc) error {
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return err
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber() // print numbers exactly as encoded
	tb := analysis.NewTable("", "metric", "value")
	if err := walk(dec, "", tb); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, tb)
	return err
}

// walk adds a table row for every scalar in the JSON value dec is at,
// named by its dotted path below name.  The document holds objects and
// scalars only.
func walk(dec *json.Decoder, name string, tb *analysis.Table) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') {
		tb.AddRow(name, tok)
		return nil
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			return err
		}
		key := k.(string)
		if name != "" {
			key = name + "." + key
		}
		if err := walk(dec, key, tb); err != nil {
			return err
		}
	}
	_, err = dec.Token() // the closing '}'
	return err
}

// writeDOT writes the materialized super-IPG as Graphviz DOT, chips as
// clusters and nodes labelled with their grouped labels.
func writeDOT(a *serve.Artifact, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var lbl perm.Label
	err = a.U.WriteDOT(f, a.Name, a.ClusterIDs(), func(v int) string {
		lbl = a.G.LabelInto(v, lbl)
		return lbl.GroupedString(a.W.SymbolLen())
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
