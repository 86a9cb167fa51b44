package serve

import (
	"context"
	"fmt"
	"sync"

	"ipg/internal/graph"
	"ipg/internal/ipg"
	"ipg/internal/ist"
	"ipg/internal/mcmp"
	"ipg/internal/netsim"
	"ipg/internal/nucleus"
	"ipg/internal/perm"
	"ipg/internal/superipg"
	"ipg/internal/topo"
	"ipg/internal/topology"
)

// Representation names for Artifact.Representation and the
// ipgd_artifact_builds_total metric labels.
const (
	RepCSR      = "csr"      // materialized flat-arena adjacency
	RepImplicit = "implicit" // codec-backed rank/unrank adjacency
	RepSkeleton = "skeleton" // label-level quantities only, no adjacency
)

// Artifact is one built topology: the immutable value the cache stores
// and every handler reads.  All fields are written once by BuildArtifact
// and only read afterwards (the CSR arenas are goroutine-safe by PR 2's
// construction); the one mutable member, the memoized diameter, has its
// own lock.
type Artifact struct {
	Params Params
	Name   string // descriptive instance name, e.g. "HSN(3,Q4)"
	N      int    // node count (known even when not materialized)

	// Super-IPG families.
	W *superipg.Network
	G *ipg.Graph // nil when the instance is too large to materialize

	// U is the undirected structural graph: the super-IPG's undirected
	// view, or the baseline family's graph.  nil only for an
	// unmaterialized super-IPG.
	U *graph.Graph

	// Baseline families.
	Clustered *mcmp.Clustered
	Analysis  *mcmp.Analysis

	// Impl is the codec-backed adjacency source, set when the instance is
	// served implicitly (too large for the arena cap, or configured below
	// it): neighbor queries are rank arithmetic with O(1) resident memory
	// regardless of N.
	Impl *topo.Implicit

	// Representation says how the artifact answers adjacency queries:
	// RepCSR, RepImplicit, or RepSkeleton.
	Representation string

	bytes int64

	mu     sync.Mutex
	diam   *int             // memoized exact diameter (successful computations only)
	superM *SuperMetrics    // memoized super-IPG metrics block
	implM  *ImplicitMetrics // memoized implicit-representation metrics block

	// metricsMemo memoizes the encoded /v1/metrics response — body plus
	// precomputed Content-Length and ETag header values — one slot per
	// withDiameter variant, so warm requests are three header map
	// assignments and a single Write with no document assembly or JSON
	// encoding.
	metricsMemo [2]*staticBody

	simNet    *netsim.Network // memoized simulation network (see SimNetwork)
	simCapVal float64

	clusterIDs []int32 // memoized chip assignment (see ClusterIDs)

	// istMemo caches independent-spanning-tree families per (dst, k),
	// FIFO-bounded (see ISTrees); the tables live and die with the
	// artifact in the server's LRU.
	istMemo  map[uint64]*ist.Trees
	istOrder []uint64
}

// SizeBytes implements cache.Value with the CSR bytes-per-vertex
// accounting from the representation benchmarks.
func (a *Artifact) SizeBytes() int64 { return a.bytes }

// Materialized reports whether the instance's graph was built (small
// enough under the server's node cap).  Route and simulate need it;
// label-level metrics do not.
func (a *Artifact) Materialized() bool { return a.U != nil }

// Super reports whether this is a super-IPG family artifact.
func (a *Artifact) Super() bool { return a.W != nil }

// Rep returns the artifact's representation name, deriving it from the
// populated fields when the builder did not set one (custom test
// builders construct Artifacts directly).
func (a *Artifact) Rep() string {
	if a.Representation != "" {
		return a.Representation
	}
	switch {
	case a.U != nil:
		return RepCSR
	case a.Impl != nil:
		return RepImplicit
	}
	return RepSkeleton
}

// Source returns the adjacency source the artifact answers structural
// queries with: the materialized CSR when present, else the implicit
// codec, else nil (skeleton artifacts have no adjacency).
func (a *Artifact) Source() topo.Source {
	if a.U != nil {
		return a.U.CSR()
	}
	if a.Impl != nil {
		return a.Impl
	}
	return nil
}

// BuildArtifact constructs the topology named by p with the default
// hybrid policy: instances up to maxNodes are materialized as CSR
// arenas, larger ones fall back to the implicit codec representation
// where the family has one (all baselines; super-IPGs with addressable
// nuclei), and the rest are served as label-level skeletons (super-IPGs
// only — a baseline with no codec and no arena is an error).
func BuildArtifact(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
	return BuildArtifactThreshold(ctx, p, maxNodes, 0)
}

// BuildArtifactThreshold is BuildArtifact with an explicit
// representation switch point: instances above implicitOver nodes are
// served implicitly even when they would fit under the materialization
// cap.  implicitOver <= 0 (or above maxNodes) means "at the cap" — the
// default policy where only non-materializable instances go implicit.
// The context is checked between the build stages; the construction
// kernels themselves are uninterruptible but bounded by maxNodes.
func BuildArtifactThreshold(ctx context.Context, p Params, maxNodes, implicitOver int) (*Artifact, error) {
	if err := p.CheckProvided(0); err != nil {
		return nil, err
	}
	if maxNodes <= 0 || maxNodes > topology.MaxNodes {
		maxNodes = topology.MaxNodes
	}
	if implicitOver <= 0 || implicitOver > maxNodes {
		implicitOver = maxNodes
	}
	f := familyTable[p.Net]
	if f.super != nil {
		return buildSuper(ctx, p, f, implicitOver)
	}
	return buildBaseline(ctx, p, f, implicitOver)
}

func buildSuper(ctx context.Context, p Params, f *family, implicitOver int) (*Artifact, error) {
	nuc, err := nucleus.Parse(p.Nucleus)
	if err != nil {
		return nil, err
	}
	w := f.super(p.L, nuc)
	a := &Artifact{Params: p, W: w, Name: w.Name(), N: w.N()}
	if a.N > implicitOver {
		// Too large (or configured) for the arena: the address codec
		// serves full adjacency with O(1) resident memory when the
		// nucleus is addressable; otherwise fall back to the label-level
		// skeleton.
		if im, err := w.Implicit(); err == nil {
			a.Impl = im
			a.Representation = RepImplicit
			a.bytes = im.ByteSize()
			return a, nil
		}
		a.Representation = RepSkeleton
		a.bytes = 256 // the label-level skeleton is effectively free
		return a, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := w.Build()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.G = g
	a.U = w.Undirected(g)
	a.Representation = RepCSR
	// The orbit representatives the diameter sweep reads stay resident
	// with the graph: 4 bytes per cluster.
	a.bytes = g.MemoryFootprint() + a.U.MemoryFootprint() + 4*int64(len(a.U.Orbits()))
	return a, nil
}

// buildBaseline serves a baseline family through its rank/unrank codec
// above implicitOver nodes (nothing is materialized, so the artifact
// costs O(1) memory at any N), and materializes its clustered arena with
// the MCMP profile otherwise.  Every baseline's codec covers the whole
// range its check admits.
func buildBaseline(ctx context.Context, p Params, f *family, implicitOver int) (*Artifact, error) {
	name, codec, err := f.codec(p)
	if err != nil {
		return nil, err
	}
	if codec.N() > implicitOver {
		im := topo.NewImplicit(codec)
		return &Artifact{
			Params:         p,
			Name:           name,
			N:              im.N(),
			Impl:           im,
			Representation: RepImplicit,
			bytes:          im.ByteSize(),
		}, nil
	}
	c, side, err := f.arena(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The MCMP profile (including the quotient-graph BFS metrics) is the
	// expensive part of a baseline build; computing it here means cached
	// metric requests are pure reads.
	an, err := mcmp.Analyze(c, side, float64(c.M))
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Params:         p,
		Name:           c.Name,
		N:              c.G.N(),
		U:              c.G,
		Clustered:      c,
		Analysis:       &an,
		Representation: RepCSR,
		bytes:          c.G.MemoryFootprint() + int64(len(c.ClusterOf))*4,
	}, nil
}

// simCap remembers which chip capacity the memoized simulation network
// was built with; a request with a different capacity rebuilds it (only
// one network is retained per artifact, bounding resident memory).
type simCap struct {
	cap float64
	net *netsim.Network
}

// SimNetwork returns the packet-level simulated network for this
// artifact, memoized per chip capacity.  The netsim.Network is immutable
// during runs (each run creates its own Sim), so sharing it between
// concurrent /v1/simulate requests is safe.
func (a *Artifact) SimNetwork(chipCapacity float64) (*netsim.Network, error) {
	if !a.Materialized() {
		return nil, fmt.Errorf("serve: %s is not materialized; cannot simulate", a.Name)
	}
	a.mu.Lock()
	if a.simNet != nil && a.simCapVal == chipCapacity {
		n := a.simNet
		a.mu.Unlock()
		return n, nil
	}
	a.mu.Unlock()

	f := familyTable[a.Params.Net]
	if f.sim == nil {
		return nil, fmt.Errorf("serve: no packet-level simulator for family %q", a.Params.Net)
	}
	net, err := f.sim(a, chipCapacity)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.simNet = net
	a.simCapVal = chipCapacity
	a.mu.Unlock()
	return net, nil
}

// ClusterIDs returns the chip assignment of a materialized artifact
// (cluster id per node), memoized: the super-IPG nucleus clustering or
// the baseline family's clustering.  nil for unmaterialized artifacts.
// The returned slice is shared and must not be modified.
func (a *Artifact) ClusterIDs() []int32 {
	if !a.Materialized() {
		return nil
	}
	if a.Clustered != nil {
		return a.Clustered.ClusterOf
	}
	if !a.Super() {
		return nil
	}
	a.mu.Lock()
	ids := a.clusterIDs
	a.mu.Unlock()
	if ids != nil {
		return ids
	}
	ids, _ = a.W.Clusters(a.G)
	a.mu.Lock()
	if a.clusterIDs == nil {
		a.clusterIDs = ids
	} else {
		ids = a.clusterIDs
	}
	a.mu.Unlock()
	return ids
}

// MaxTrees returns the largest independent-spanning-tree family the
// artifact's topology supports: the full dimension for the hypercube
// (closed-form construction), the generic 2-connected bound otherwise.
func (a *Artifact) MaxTrees() int {
	if a.Params.Net == "hypercube" {
		return a.Params.Dim
	}
	return ist.GenericMaxTrees
}

// IST memo bounds: at most istMemoMaxEntries destination families per
// artifact, and only tables whose parent count (k*N) stays under
// istMemoMaxParents (4 MiB of int32s) are retained at all — a giant
// implicit-scale table is computed per request instead of pinned.
const (
	istMemoMaxEntries = 64
	istMemoMaxParents = 1 << 20
)

// ISTrees returns the k independent spanning trees rooted at dst on the
// artifact's healthy topology, memoized FIFO per (dst, k).  The trees
// are deterministic, so every replica computes identical tables and
// cluster peer-fill keys stay representation-independent.
func (a *Artifact) ISTrees(ctx context.Context, dst, k int) (*ist.Trees, error) {
	key := uint64(dst)<<8 | uint64(k)
	a.mu.Lock()
	if tr, ok := a.istMemo[key]; ok {
		a.mu.Unlock()
		return tr, nil
	}
	a.mu.Unlock()
	var (
		tr  *ist.Trees
		err error
	)
	if a.Params.Net == "hypercube" && k <= a.Params.Dim {
		// Hypercube node ids are the d-bit addresses, so the closed-form
		// k = d family applies directly.
		tr, err = ist.BuildHypercube(a.Params.Dim, dst, k)
	} else {
		src := a.Source()
		if src == nil {
			return nil, badRequest("%s has no adjacency representation (label-level skeleton); no multipath trees", a.Name)
		}
		tr, err = ist.Build(ctx, src, dst, k)
	}
	if err != nil {
		return nil, err
	}
	if k*a.N <= istMemoMaxParents {
		a.mu.Lock()
		if cached, ok := a.istMemo[key]; ok {
			tr = cached // a concurrent builder won; keep one table resident
		} else {
			if a.istMemo == nil {
				a.istMemo = make(map[uint64]*ist.Trees, istMemoMaxEntries)
			}
			if len(a.istOrder) >= istMemoMaxEntries {
				delete(a.istMemo, a.istOrder[0])
				a.istOrder = a.istOrder[1:]
			}
			a.istMemo[key] = tr
			a.istOrder = append(a.istOrder, key)
		}
		a.mu.Unlock()
	}
	return tr, nil
}

// routeLabels renders the node labels of a super-IPG route: materialized
// artifacts unpack each from the built graph into one scratch label
// (on the stack up to 64 symbols), implicit ones decode it from the
// address (implicit super vertices ARE their group addresses, so LabelOf
// inverts the codec's numbering exactly).
func (a *Artifact) routeLabels(path []int) ([]string, error) {
	labels := make([]string, len(path))
	var buf [64]byte
	lbl := perm.Label(buf[:0])
	for i, v := range path {
		if a.G != nil {
			lbl = a.G.LabelInto(v, lbl)
		} else {
			var err error
			if lbl, err = a.W.LabelOf(v); err != nil {
				return nil, err
			}
		}
		labels[i] = lbl.GroupedString(a.W.SymbolLen())
	}
	return labels, nil
}

// implicitSweepMax bounds the traversals run over implicit artifacts.
// The distance sweeps of the vertex-transitive families collapse to a
// single O(N) BFS; a /v1/route search reads only its two balls but
// resets an O(N) label array, and checks ctx before every level.  Both
// use transient dist/queue scratch, so 1<<24 vertices (~128 MiB of
// scratch, back in the pool after the request) is affordable per request
// while the artifact itself stays O(1) resident.
const implicitSweepMax = 1 << 24

// sweepableImplicit reports whether the artifact's implicit source
// supports exact distance metrics at its size: a proven
// vertex-transitive codec collapses the all-sources sweep to one BFS.
func (a *Artifact) sweepableImplicit() bool {
	return a.Impl != nil && topo.SourceTransitive(a.Impl) && a.N <= implicitSweepMax
}

// Diameter returns the exact graph diameter, computing it at most once
// per artifact under the caller's deadline.  A cancelled computation is
// not memoized, so a later request with a longer deadline can succeed.
// Materialized artifacts sweep the CSR from U's orbit representatives
// (one node per cluster for super-IPGs over a vertex-transitive nucleus,
// one node for vertex-transitive baselines); implicit vertex-transitive
// ones collapse to a single codec-driven BFS (under implicitSweepMax).
func (a *Artifact) Diameter(ctx context.Context) (int, error) {
	if !a.Materialized() && !a.sweepableImplicit() {
		return 0, badRequest("%s has no representation that supports an exact diameter: implicit sweeps need a vertex-transitive codec and at most %d nodes", a.Name, implicitSweepMax)
	}
	a.mu.Lock()
	if a.diam != nil {
		d := *a.diam
		a.mu.Unlock()
		return d, nil
	}
	a.mu.Unlock()
	var src topo.Source = a.Impl
	if a.Materialized() {
		src = a.U
	}
	d, _, err := graph.Distances(ctx, src)
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	a.diam = &d
	a.mu.Unlock()
	return d, nil
}
