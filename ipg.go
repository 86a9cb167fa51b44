// Package ipg is a Go implementation of the index-permutation graph (IPG)
// model of Yeh & Parhami and a full reproduction of their ICPP 2001 paper
// "Parallel Algorithms for Index-Permutation Graphs — An Extension of
// Cayley Graphs for Multiple Chip-Multiprocessors (MCMP)".
//
// The package re-exports the main entry points of the internal substrate:
//
//   - permutations, labels and generators (internal/perm)
//   - the IPG closure engine (internal/ipg)
//   - nucleus graphs and super-IPG families: HSN, ring-CN, complete-CN,
//     SFN, RCC, HCN (internal/nucleus, internal/superipg)
//   - baseline topologies: hypercubes, tori, generalized hypercubes, CCC,
//     butterflies (internal/topology)
//   - HPN emulation under the SDC and all-port models (internal/emul,
//     internal/schedule)
//   - ascend/descend algorithms: FFT, bitonic sort, all-reduce, broadcast
//     (internal/ascend)
//   - the MCMP unit-chip-capacity model and bisection analysis
//     (internal/mcmp)
//   - a parallel packet-level network simulator (internal/netsim)
//   - the per-table/figure reproduction harness (internal/experiments)
//
// Quick start:
//
//	net := ipg.HSN(3, ipg.HypercubeNucleus(4)) // HSN(3,Q4): 4096 nodes
//	g, err := net.Build()
//	...
//	r, err := ipg.NewFFTRunner(net, g)
//	spectrum, stats, err := ipg.FFT(r, signal, false)
package ipg

import (
	"ipg/internal/ascend"
	"ipg/internal/experiments"
	igraph "ipg/internal/graph"
	iipg "ipg/internal/ipg"
	"ipg/internal/mcmp"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/perm"
	"ipg/internal/schedule"
	"ipg/internal/superipg"
	"ipg/internal/topology"
	"ipg/internal/wormhole"
)

// Core algebra.
type (
	// Perm is a permutation acting on label positions.
	Perm = perm.Perm
	// Label is an IPG node label (a symbol string, repeats allowed).
	Label = perm.Label
	// Generator is a named permutation defining an IPG edge relation.
	Generator = perm.Generator
	// GenSet is an ordered set of generators.
	GenSet = perm.GenSet
)

// Graph types.
type (
	// Graph is a materialized IPG.
	Graph = iipg.Graph
	// Spec defines an IPG (seed + generators) before materialization.
	Spec = iipg.Spec
	// UndirectedGraph is the plain adjacency-list graph used for metrics.
	UndirectedGraph = igraph.Graph
)

// Nucleus and super-IPG types.
type (
	// Nucleus is a nucleus graph in IPG form.
	Nucleus = nucleus.Nucleus
	// Network is a super-IPG family instance (HSN, CN, SFN, ...).
	Network = superipg.Network
	// SuperGraph is a materialized super-IPG, whose node v is the
	// mixed-radix address v of its label.
	SuperGraph = superipg.Graph
)

// Algorithm and model types.
type (
	// AscendStats reports communication counts of an ascend/descend run.
	AscendStats = ascend.Stats
	// Schedule is an all-port HPN-emulation schedule (Theorem 3.8).
	Schedule = schedule.Schedule
	// Clustered is a network partitioned onto chips for MCMP analysis.
	Clustered = mcmp.Clustered
	// MCMPAnalysis is the unit-chip-capacity profile of a network.
	MCMPAnalysis = mcmp.Analysis
	// SimNetwork is a simulated network for the packet-level simulator.
	SimNetwork = netsim.Network
	// ExperimentResult is one reproduced table/figure with its checks.
	ExperimentResult = experiments.Result
)

// Label and permutation constructors.
var (
	// ParseLabel parses "123 321"-style label strings.
	ParseLabel = perm.ParseLabel
	// MustParseLabel is ParseLabel that panics on error.
	MustParseLabel = perm.MustParseLabel
	// Identity returns the identity permutation on n positions.
	Identity = perm.Identity
	// Transposition returns the permutation exchanging two positions.
	Transposition = perm.Transposition
	// FromImage builds a permutation from 1-based one-line notation.
	FromImage = perm.FromImage
	// Gen names a permutation as a generator.
	Gen = perm.Gen
)

// IPG engine.
var (
	// Build materializes an IPG from its spec.
	Build = iipg.Build
	// MustBuild is Build that panics on error.
	MustBuild = iipg.MustBuild
)

// Nucleus constructors.
var (
	// HypercubeNucleus returns the binary k-cube Q_k as a nucleus.
	HypercubeNucleus = nucleus.Hypercube
	// FoldedHypercubeNucleus returns FQ_k.
	FoldedHypercubeNucleus = nucleus.FoldedHypercube
	// CompleteNucleus returns the complete graph K_m as a nucleus.
	CompleteNucleus = nucleus.Complete
	// RingNucleus returns the cycle C_m as a nucleus.
	RingNucleus = nucleus.Ring
	// GHCNucleus returns a mixed-radix generalized hypercube nucleus.
	GHCNucleus = nucleus.GeneralizedHypercube
	// StarNucleus returns the star graph S_n as a nucleus.
	StarNucleus = nucleus.Star
	// NucleusProduct returns the Cartesian product of two nuclei.
	NucleusProduct = nucleus.Product
	// NucleusPower returns the p-th Cartesian power of a nucleus.
	NucleusPower = nucleus.Power
)

// Super-IPG family constructors.
var (
	// HSN returns the l-level hierarchical swap network HSN(l, G).
	HSN = superipg.HSN
	// RingCN returns the ring cyclic network ring-CN(l, G).
	RingCN = superipg.RingCN
	// CompleteCN returns the complete cyclic network complete-CN(l, G).
	CompleteCN = superipg.CompleteCN
	// SFN returns the l-level super-flip network SFN(l, G).
	SFN = superipg.SFN
	// DirectedCN returns the directed cyclic network.
	DirectedCN = superipg.DirectedCN
	// HCN returns the hierarchical cubic network HCN(n, n).
	HCN = superipg.HCN
	// RCC returns the r-level recursively connected complete network.
	RCC = superipg.RCC
	// RHSN returns the depth-d recursive hierarchical swap network.
	RHSN = superipg.RHSN
	// HFN returns the hierarchical folded-hypercube network HFN(n, n).
	HFN = superipg.HFN
)

// Baseline topologies.
var (
	// NewHypercube builds the binary d-cube.
	NewHypercube = topology.NewHypercube
	// NewTorus builds the k-ary n-cube.
	NewTorus = topology.NewTorus
	// NewGHCGraph builds a generalized hypercube graph.
	NewGHCGraph = topology.NewGHCGraph
	// NewCCC builds the cube-connected cycles network.
	NewCCC = topology.NewCCC
	// NewButterfly builds the wrapped butterfly.
	NewButterfly = topology.NewButterfly
)

// Ascend/descend algorithms.
var (
	// FFT runs the descend-pass FFT on a super-IPG.
	FFT = ascend.FFT
	// BitonicSort sorts keys on a super-IPG with the bitonic network.
	BitonicSort = ascend.BitonicSort
	// AllReduceSum leaves the global sum at every node.
	AllReduceSum = ascend.AllReduceSum
	// Broadcast propagates address 0's value to every node.
	Broadcast = ascend.Broadcast
	// Convolve computes circular convolution via three FFT passes.
	Convolve = ascend.Convolve
	// MatMulDNS multiplies matrices with the Dekel-Nassimi-Sahni algorithm.
	MatMulDNS = ascend.MatMulDNS
	// DFT is the O(N^2) reference transform.
	DFT = ascend.DFT
)

// Wormhole / virtual cut-through flit simulation (Section 3.1 discussion).
var (
	// WormholeSlowdown measures the pipelined emulation slowdown for one
	// HPN dimension (approaches 2 as the message length grows).
	WormholeSlowdown = wormhole.Slowdown
	// EmulationPaths builds the per-node emulation paths of a dimension.
	EmulationPaths = wormhole.EmulationPaths
)

// NewFFTRunner prepares an ascend runner carrying complex data.
func NewFFTRunner(w *Network, g *SuperGraph) (*ascend.Runner[complex128], error) {
	return ascend.NewRunner[complex128](w, g)
}

// NewFloatRunner prepares an ascend runner carrying float64 data.
func NewFloatRunner(w *Network, g *SuperGraph) (*ascend.Runner[float64], error) {
	return ascend.NewRunner[float64](w, g)
}

// All-port scheduling (Theorem 3.8 / Figure 1).
var (
	// BuildSchedule constructs the all-port emulation schedule.
	BuildSchedule = schedule.Build
	// ScheduleSteps returns the theoretical length max(2n, l+1).
	ScheduleSteps = schedule.Steps
)

// Experiments: the per-table/figure reproduction harness.
var (
	// RunExperiment runs one experiment by id (see ExperimentIDs).
	RunExperiment = experiments.Run
	// RunAllExperiments runs the whole suite.
	RunAllExperiments = experiments.RunAll
	// ExperimentIDs lists the known experiment ids.
	ExperimentIDs = experiments.IDs
	// ExperimentTitle returns an experiment's title.
	ExperimentTitle = experiments.Title
)

// Experiment scales.
const (
	// ScaleSmall runs experiments at test-friendly sizes.
	ScaleSmall = experiments.Small
	// ScalePaper runs experiments at the sizes quoted in the paper.
	ScalePaper = experiments.Paper
)
