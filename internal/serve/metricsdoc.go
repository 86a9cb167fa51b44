package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"

	"ipg/internal/graph"
	"ipg/internal/topo"
)

// MetricsDoc is the machine-readable metrics document for one network
// instance.  It is the single JSON shape shared by the daemon's
// /v1/metrics endpoint and `ipgtool -json`, so scripts can swap between
// the CLI and the service without a second parser.
type MetricsDoc struct {
	Network      string `json:"network"` // instance name, e.g. "HSN(3,Q4)"
	Key          string `json:"key"`     // canonical cache key
	Family       string `json:"family"`  // family name, e.g. "hsn"
	Nodes        int    `json:"nodes"`
	Materialized bool   `json:"materialized"`

	// Representation says how the instance answers adjacency queries —
	// "csr" (materialized arena), "implicit" (rank/unrank codec), or
	// "skeleton" (label-level only) — and BytesPerVertex is the resident
	// cost of that choice (SizeBytes / Nodes): roughly 8 + 4*degree for
	// CSR, asymptotically zero for implicit.
	Representation string  `json:"representation"`
	BytesPerVertex float64 `json:"bytes_per_vertex"`
	SizeBytes      int64   `json:"size_bytes"`

	Super     *SuperMetrics     `json:"super,omitempty"`
	Structure *StructureMetrics `json:"structure,omitempty"`
	MCMP      *MCMPMetrics      `json:"mcmp,omitempty"`
	Implicit  *ImplicitMetrics  `json:"implicit,omitempty"`

	// Diameter is the exact graph diameter, present only when requested:
	// it is the one optional field with a distance sweep behind it (one
	// BFS for vertex-transitive families, one source per cluster for
	// super-IPGs over a vertex-transitive nucleus, every source
	// otherwise), memoized per artifact.
	Diameter *int `json:"diameter,omitempty"`

	// Degraded is the survivability block, present only when the request
	// carried fault parameters.  It is computed per request (never
	// memoized): the fault sample depends on count, mode, and seed.
	Degraded *DegradedMetrics `json:"degraded,omitempty"`
}

// DegradedMetrics reports what survives a sampled failure scenario.
// Diameter and AvgDistance cover the whole alive subgraph and are -1 when
// it is disconnected; the Giant* fields always describe the largest
// surviving component.  The chip fields appear when the family has a chip
// assignment.
type DegradedMetrics struct {
	Mode  string `json:"mode"`
	Count int    `json:"count"`
	Seed  int64  `json:"seed"`

	Alive       int `json:"alive"`
	FailedNodes int `json:"failed_nodes"`
	FailedLinks int `json:"failed_links"`
	FailedChips int `json:"failed_chips,omitempty"`

	Components       int `json:"components"`
	LargestComponent int `json:"largest_component"`

	Diameter         int     `json:"diameter"`
	AvgDistance      float64 `json:"avg_distance"`
	GiantDiameter    int     `json:"giant_diameter"`
	GiantAvgDistance float64 `json:"giant_avg_distance"`

	ChipsTotal     int `json:"chips_total,omitempty"`
	ChipsDead      int `json:"chips_dead,omitempty"`
	ChipsReachable int `json:"chips_reachable,omitempty"`
}

// ImplicitMetrics describes the codec-backed representation of an
// implicit artifact.  The distance metrics are exact and present only
// when the codec proves vertex transitivity (one BFS from vertex 0
// covers the orbit) and the instance is under the sweep cap; they are
// the same quantities a materialized all-sources sweep would report.
type ImplicitMetrics struct {
	Codec            string   `json:"codec"`
	DegreeBound      int      `json:"degree_bound"`
	VertexTransitive bool     `json:"vertex_transitive"`
	Diameter         *int     `json:"diameter,omitempty"`
	AvgDistance      *float64 `json:"avg_distance,omitempty"`
}

// SuperMetrics carries the label-level quantities of super-IPG families.
// The measured fields are present only for materialized instances.
type SuperMetrics struct {
	L           int    `json:"l"`
	M           int    `json:"m"` // nucleus order
	Seed        string `json:"seed"`
	NucleusGens int    `json:"nucleus_gens"`
	SuperGens   int    `json:"super_gens"`

	// Theorem 4.1 / 4.3 quantities from the arrangement BFS, computed
	// when l <= maxArrangementL; the closed-form corollary values are
	// always present (TheoreticalTS is -1 when Corollary 4.4 gives no
	// formula for the family).
	InterclusterT *int `json:"intercluster_t,omitempty"`
	SymmetricTS   *int `json:"symmetric_ts,omitempty"`
	TheoreticalT  int  `json:"theoretical_t"`
	TheoreticalTS int  `json:"theoretical_ts"`

	InterclusterLinks    *int     `json:"intercluster_links,omitempty"`
	InterclusterDegree   *float64 `json:"intercluster_degree,omitempty"`
	InterclusterDiameter *int     `json:"intercluster_diameter,omitempty"`
	AvgInterclusterDist  *float64 `json:"avg_intercluster_distance,omitempty"`
}

// StructureMetrics describes the materialized undirected graph.
type StructureMetrics struct {
	Links     int     `json:"links"`
	DegreeMin int     `json:"degree_min"`
	DegreeMax int     `json:"degree_max"`
	DegreeAvg float64 `json:"degree_avg"`
}

// MCMPMetrics is the MCMP profile (unit chip capacity, w=1) of a
// clustered baseline network, mirroring mcmp.Analysis.
type MCMPMetrics struct {
	Chips                int     `json:"chips"`
	NodesPerChip         int     `json:"nodes_per_chip"`
	OffChipLinks         int     `json:"off_chip_links"`
	LinksPerChip         int     `json:"links_per_chip"`
	InterclusterDegree   float64 `json:"intercluster_degree"`
	InterclusterDiameter int     `json:"intercluster_diameter"`
	AvgInterclusterDist  float64 `json:"avg_intercluster_distance"`
	PerLinkBandwidth     float64 `json:"per_link_bandwidth"`
	BisectionWidth       int     `json:"bisection_width"`
	BisectionBandwidth   float64 `json:"bisection_bandwidth"`
}

// maxArrangementL bounds the Theorem 4.1/4.3 arrangement BFS inside the
// serving layer.  The state space is up to l! * 2^l for complete-CN; at
// l = 8 that is ~10M states, which a request can afford — beyond it the
// document carries only the closed-form corollary values.
const maxArrangementL = 8

// ComputeMetrics assembles the metrics document for a built artifact.
// The expensive pieces (quotient BFS, arrangement BFS) are memoized on
// the artifact, so repeated metric requests against a cached artifact
// are pure reads.  withDiameter additionally runs the diameter sweep
// (Artifact.Diameter) under ctx.
func ComputeMetrics(ctx context.Context, a *Artifact, withDiameter bool) (*MetricsDoc, error) {
	doc := &MetricsDoc{
		Network:        a.Name,
		Key:            a.Params.Key(),
		Family:         a.Params.Net,
		Nodes:          a.N,
		Materialized:   a.Materialized(),
		Representation: a.Rep(),
		SizeBytes:      a.SizeBytes(),
	}
	if a.N > 0 {
		doc.BytesPerVertex = float64(a.SizeBytes()) / float64(a.N)
	}
	if a.Impl != nil {
		im, err := a.implicitMetrics(ctx)
		if err != nil {
			return nil, err
		}
		doc.Implicit = im
	}
	if a.Super() {
		sm, err := a.superMetrics(ctx)
		if err != nil {
			return nil, err
		}
		doc.Super = sm
	}
	if a.Materialized() {
		min, max, avg := a.U.DegreeStats()
		doc.Structure = &StructureMetrics{
			Links:     a.U.M(),
			DegreeMin: min,
			DegreeMax: max,
			DegreeAvg: avg,
		}
	}
	if a.Analysis != nil {
		an := a.Analysis
		doc.MCMP = &MCMPMetrics{
			Chips:                an.Chips,
			NodesPerChip:         an.M,
			OffChipLinks:         an.OffChipLinks,
			LinksPerChip:         an.LinksPerChip,
			InterclusterDegree:   an.InterclusterDeg,
			InterclusterDiameter: an.InterclusterDiam,
			AvgInterclusterDist:  an.AvgInterclusterDst,
			PerLinkBandwidth:     an.PerLinkBW,
			BisectionWidth:       an.BisectionWidth,
			BisectionBandwidth:   an.BisectionBandwidth,
		}
	}
	if withDiameter {
		d, err := a.Diameter(ctx)
		if err != nil {
			return nil, err
		}
		doc.Diameter = &d
	}
	return doc, nil
}

// implicitMetrics computes (once) the implicit-representation block.
// For vertex-transitive codecs under the sweep cap it runs one
// single-source sweep (diameter and average distance collapse to one
// BFS from vertex 0); a ctx error is returned without memoizing so a
// later request with a longer deadline can still succeed.
func (a *Artifact) implicitMetrics(ctx context.Context) (*ImplicitMetrics, error) {
	a.mu.Lock()
	if a.implM != nil {
		im := a.implM
		a.mu.Unlock()
		return im, nil
	}
	a.mu.Unlock()

	im := &ImplicitMetrics{
		Codec:            a.Impl.Codec().Name(),
		DegreeBound:      a.Impl.DegreeBound(),
		VertexTransitive: topo.SourceTransitive(a.Impl),
	}
	if a.sweepableImplicit() {
		d, avg, err := graph.Distances(ctx, a.Impl)
		if err != nil {
			return nil, err
		}
		im.Diameter = &d
		im.AvgDistance = &avg
	}

	a.mu.Lock()
	if a.implM == nil {
		a.implM = im
	} else {
		im = a.implM
	}
	a.mu.Unlock()
	return im, nil
}

// superMetrics computes (once) the super-IPG block of the document.  A
// ctx error mid-computation is returned without memoizing, so a later
// request with a longer deadline can still succeed.
func (a *Artifact) superMetrics(ctx context.Context) (*SuperMetrics, error) {
	a.mu.Lock()
	if a.superM != nil {
		sm := a.superM
		a.mu.Unlock()
		return sm, nil
	}
	a.mu.Unlock()

	w := a.W
	sm := &SuperMetrics{
		L:             w.L,
		M:             w.M(),
		Seed:          w.Seed().GroupedString(w.SymbolLen()),
		NucleusGens:   w.NumNucGens(),
		SuperGens:     w.NumSupers(),
		TheoreticalT:  w.TheoreticalInterclusterDiameter(),
		TheoreticalTS: w.TheoreticalSymmetricDiameter(),
	}
	if w.L <= maxArrangementL {
		if t, err := w.InterclusterT(); err == nil {
			sm.InterclusterT = &t
		}
		if ts, err := w.SymmetricTS(); err == nil {
			sm.SymmetricTS = &ts
		}
	}
	if a.Materialized() {
		clusterOf, nc := w.Clusters(a.G)
		links := w.InterclusterLinks(a.U, clusterOf)
		deg := w.InterclusterDegree(a.G, clusterOf, nc)
		sm.InterclusterLinks = &links
		sm.InterclusterDegree = &deg
		d, avg, err := w.InterclusterDistances(ctx, a.G, clusterOf, nc)
		if err != nil {
			return nil, err
		}
		sm.InterclusterDiameter = &d
		sm.AvgInterclusterDist = &avg
	}

	a.mu.Lock()
	if a.superM == nil {
		a.superM = sm
	} else {
		sm = a.superM
	}
	a.mu.Unlock()
	return sm, nil
}

// WriteJSON writes the document as indented JSON.  Both `ipgtool -json`
// and the daemon funnel through this one encoder, keeping the two
// surfaces byte-identical for identical inputs.
func (d *MetricsDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// metricsBody returns the encoded metrics document with its precomputed
// response headers (Content-Length, strong ETag), memoized per
// withDiameter variant: the first request pays for document assembly,
// encoding, and the hash; every later one is a lock and a pointer load.
// The bytes go through the same WriteJSON encoder, so the body stays
// byte-identical to `ipgtool -json`.  Failed computations (cancelled
// contexts) are not memoized.
func (a *Artifact) metricsBody(ctx context.Context, withDiameter bool) (*staticBody, error) {
	idx := 0
	if withDiameter {
		idx = 1
	}
	a.mu.Lock()
	sb := a.metricsMemo[idx]
	a.mu.Unlock()
	if sb != nil {
		return sb, nil
	}
	doc, err := ComputeMetrics(ctx, a, withDiameter)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, err
	}
	sb = newStaticBody(buf.Bytes())
	a.mu.Lock()
	if a.metricsMemo[idx] == nil {
		a.metricsMemo[idx] = sb
	} else {
		sb = a.metricsMemo[idx]
	}
	a.mu.Unlock()
	return sb, nil
}

// MetricsJSON returns the encoded metrics document body (the memoized
// bytes behind metricsBody), for callers that serve or re-decode the
// document without the HTTP header plumbing.
func (a *Artifact) MetricsJSON(ctx context.Context, withDiameter bool) ([]byte, error) {
	sb, err := a.metricsBody(ctx, withDiameter)
	if err != nil {
		return nil, err
	}
	return sb.body, nil
}
