package cluster

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/breaker"
)

// Header names of the peer-fill protocol.  FillHeader marks an internal
// peer-fill request, so the receiving replica serves it locally (never
// forwards again — no loops) or declines with 421 when it neither owns
// the key nor has it cached.  ReplicaHeader names the replica that
// produced a response body; ViaHeader names the replica that proxied it.
const (
	FillHeader    = "X-Ipgd-Fill"
	ReplicaHeader = "X-Ipgd-Replica"
	ViaHeader     = "X-Ipgd-Via"
)

// Config describes one replica's view of the cluster.
type Config struct {
	// Self is this replica's own base URL, exactly as it appears in
	// Peers (e.g. "http://10.0.0.3:8080").
	Self string
	// Peers is the full static membership, including Self.
	Peers []string
	// VNodes is the virtual-node count per peer; 0 means 64.
	VNodes int
	// HedgeDelay is how long a peer-fill waits on the owner before racing
	// the next ring successor; 0 means 30ms, negative disables hedging.
	HedgeDelay time.Duration
	// FetchTimeout bounds one whole peer-fill fetch (both legs); 0 means
	// 30s.  It also caps how long a frozen peer can stall a fill before
	// the caller falls back to building locally.
	FetchTimeout time.Duration
	// BreakerThreshold is the consecutive fetch failures that open a
	// peer's circuit, cutting it out of the ring until a half-open probe
	// succeeds; 0 means 3, negative disables per-peer breakers.
	BreakerThreshold int
	// BreakerCooldown is the open-circuit window before a probe; 0 means 5s.
	BreakerCooldown time.Duration
	// MaxFillBytes caps a peer-fill response body; 0 means 64 MiB.
	MaxFillBytes int64
	// Transport overrides the HTTP transport between peers (tests); nil
	// means a dedicated http.Transport with per-host keep-alive pools.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 30 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.MaxFillBytes <= 0 {
		c.MaxFillBytes = 64 << 20
	}
	return c
}

// peerCounters tracks outgoing fill traffic toward one peer.
type peerCounters struct {
	fetches atomic.Int64
	errors  atomic.Int64
}

// Cluster is one replica's cluster runtime: the shared ring, the HTTP
// client used for peer fills, one circuit breaker per peer, and the
// fill/hedge counters exposed on /v1/cluster and /metrics.
type Cluster struct {
	cfg      Config
	ring     *Ring
	client   *http.Client
	breakers *breaker.Set // keyed by peer URL; nil when disabled
	perPeer  map[string]*peerCounters

	fills      atomic.Int64 // outgoing peer-fill fetches (post-singleflight)
	fillErrors atomic.Int64 // fetches that exhausted every leg
	hedges     atomic.Int64 // hedge legs launched
	hedgeWins  atomic.Int64 // fills answered by the hedge leg
	declines   atomic.Int64 // 421 not-owner responses received

	mu      sync.Mutex
	flights map[string]*fillFlight // singleflight per request URI

	// legs counts running fetch legs, including a losing leg that
	// finishes its breaker report after its fill has returned.
	legs sync.WaitGroup
}

// ParsePeers splits and validates a comma-separated peer list: every
// entry must be an absolute http(s) URL with a host and nothing else (no
// path, query, fragment, or user info), and entries must be unique.  It
// is the shared validator behind the ipgd -peers flag.
func ParsePeers(s string) ([]string, error) {
	var peers []string
	for _, raw := range strings.Split(s, ",") {
		p := strings.TrimSpace(raw)
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer entry in %q", s)
		}
		u, err := url.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %v", p, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("cluster: peer %q: scheme must be http or https", p)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q has no host", p)
		}
		if u.Path != "" || u.RawQuery != "" || u.Fragment != "" || u.User != nil {
			return nil, fmt.Errorf("cluster: peer %q must be a bare base URL (scheme://host:port)", p)
		}
		peers = append(peers, u.Scheme+"://"+u.Host)
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", sorted[i])
		}
	}
	return peers, nil
}

// New builds the replica's cluster runtime.  Self must appear in Peers.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, ring.Peers())
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     ring,
		client:   &http.Client{Transport: transport},
		breakers: breaker.NewSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		perPeer:  make(map[string]*peerCounters, len(ring.Peers())),
		flights:  make(map[string]*fillFlight),
	}
	for _, p := range ring.Peers() {
		c.perPeer[p] = &peerCounters{}
	}
	return c, nil
}

// Self returns this replica's own base URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// Size returns the configured cluster size.
func (c *Cluster) Size() int { return len(c.ring.Peers()) }

// alive admits self unconditionally and every peer whose circuit is not
// open.  Half-open peers stay in the ring: the next fill toward them is
// the probe that decides whether they rejoin.
func (c *Cluster) alive(peer string) bool {
	return peer == c.cfg.Self || c.breakers.State(peer, time.Now()) != breaker.Open
}

// Owner returns the peer currently owning key, i.e. the first alive ring
// successor.  Ownership rehashes automatically when a peer's circuit
// opens and heals back when it closes.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key, c.alive) }

// Owns reports whether this replica currently owns key.
func (c *Cluster) Owns(key string) bool { return c.Owner(key) == c.cfg.Self }

// Preference returns the current failover order for key: all alive peers
// in ring-successor order (owner first).
func (c *Cluster) Preference(key string) []string {
	return c.ring.Successors(key, 0, c.alive)
}

// route picks the fill targets for key: the owning peer and the hedge
// fallback (the next alive successor that is neither the owner nor
// self).  self reports that this replica is the owner, in which case the
// caller builds locally and no fetch happens.
func (c *Cluster) route(key string) (owner, fallback string, self bool) {
	pref := c.Preference(key)
	if len(pref) == 0 || pref[0] == c.cfg.Self {
		return "", "", true
	}
	owner = pref[0]
	for _, p := range pref[1:] {
		if p != c.cfg.Self {
			fallback = p
			break
		}
	}
	return owner, fallback, false
}

// PeerStatus is one peer's row in the /v1/cluster document.
type PeerStatus struct {
	Peer    string `json:"peer"`
	Self    bool   `json:"self,omitempty"`
	Breaker string `json:"breaker"` // closed | open | half-open
	Fetches int64  `json:"fetches"` // outgoing fills sent to this peer
	Errors  int64  `json:"errors"`  // outgoing fills that failed
}

// Status is the cluster-side half of the /v1/cluster document (the
// serving layer adds its own request counters on top).
type Status struct {
	Self       string       `json:"self"`
	VNodes     int          `json:"vnodes"`
	Peers      []PeerStatus `json:"peers"`
	Fills      int64        `json:"peer_fills"`
	FillErrors int64        `json:"peer_fill_errors"`
	Hedges     int64        `json:"hedges"`
	HedgeWins  int64        `json:"hedge_wins"`
	Declines   int64        `json:"declines"`
}

// Status snapshots the ring membership, per-peer breaker states, and
// fill/hedge counters.
func (c *Cluster) Status() Status {
	now := time.Now()
	st := Status{
		Self:       c.cfg.Self,
		VNodes:     c.ring.VNodes(),
		Fills:      c.fills.Load(),
		FillErrors: c.fillErrors.Load(),
		Hedges:     c.hedges.Load(),
		HedgeWins:  c.hedgeWins.Load(),
		Declines:   c.declines.Load(),
	}
	for _, p := range c.ring.Peers() {
		ps := PeerStatus{Peer: p, Self: p == c.cfg.Self, Breaker: breaker.Closed.String()}
		if !ps.Self {
			ps.Breaker = c.breakers.State(p, now).String()
		}
		if pc := c.perPeer[p]; pc != nil {
			ps.Fetches = pc.fetches.Load()
			ps.Errors = pc.errors.Load()
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// OpenPeers counts peers whose circuit is currently open (cut out of the
// ring), for the Prometheus gauge.
func (c *Cluster) OpenPeers() int64 {
	now := time.Now()
	var n int64
	for _, p := range c.ring.Peers() {
		if p != c.cfg.Self && c.breakers.State(p, now) == breaker.Open {
			n++
		}
	}
	return n
}
