package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ipg/internal/cache"
	"ipg/internal/cluster"
)

// Cluster-mode request routing.  With Config.Cluster set, every
// artifact-backed endpoint consults the consistent-hash ring before
// doing any work: the key's owner serves locally (one build per key
// cluster-wide, deduplicated by the owner's in-process singleflight),
// and every other replica peer-fills — a hedged HTTP fetch of the same
// request from the owner, with concurrent identical fetches collapsed
// by the cluster singleflight and (for immutable metrics documents)
// the bytes cached locally alongside artifacts.  Peer-fill never
// compromises availability: when the owner and the hedge fallback are
// both unreachable, the replica builds locally — the ring has already
// rehashed ownership onto the survivors by then, so local is correct.

// fillBody is a cached peer-fill response body (a memoized metrics
// document fetched from the owner).  It lives in the same byte-budgeted
// LRU as artifacts, under a "fill|"-prefixed key, so hot remote
// documents are evictable like everything else.
type fillBody struct {
	body        []byte
	contentType string
}

// SizeBytes implements cache.Value (64 covers the struct overhead).
func (f fillBody) SizeBytes() int64 { return int64(len(f.body)) + 64 }

// fillBodyKey names the local cache slot for a cacheable fill body.
// Only fault-free metrics documents are body-cached: they are memoized
// and byte-stable on the owner, so replicas may serve them from cache
// indefinitely.  "" means not cacheable.
func fillBodyKey(p Params, withDiameter bool) string {
	d := 0
	if withDiameter {
		d = 1
	}
	return fmt.Sprintf("fill|metrics|%s|diameter=%d", p.Key(), d)
}

// errFillStatus carries a non-200 peer response through the cache's
// singleflight error path, so it is never cached but still replayed
// (with its Retry-After) to every collapsed waiter.
type errFillStatus struct {
	res *cluster.FillResult
}

func (e *errFillStatus) Error() string {
	return fmt.Sprintf("serve: peer fill returned HTTP %d", e.res.Status)
}

// maybeForward implements the cluster routing decision for one request.
// It returns handled=true when the response has been written (proxied
// from a peer, served from the fill-body cache, or declined with 421);
// handled=false means the caller should serve locally.  bodyKey is the
// local cache slot for a cacheable response body ("" for per-request
// computations like routes and simulations).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, p Params, bodyKey string) (bool, error) {
	cl := s.cfg.Cluster
	if cl == nil {
		return false, nil
	}
	key := p.Key()
	w.Header().Set(cluster.ReplicaHeader, cl.Self())

	if r.Header.Get(cluster.FillHeader) != "" {
		// Incoming peer-fill: serve locally, never forward again (no
		// forwarding loops).  A replica that neither owns the key nor has
		// anything cached declines with 421 so a hedge leg cannot trigger
		// a duplicate build.
		s.metrics.clusterFillsServed.Add(1)
		if cl.Owns(key) {
			return false, nil
		}
		if _, ok := s.cache.Get(key); ok {
			return false, nil // artifact already here (e.g. pre-rehash owner)
		}
		if bodyKey != "" {
			if v, ok := s.cache.Get(bodyKey); ok {
				fb := v.(fillBody)
				w.Header().Set("Content-Type", fb.contentType)
				_, err := w.Write(fb.body)
				return true, err
			}
		}
		s.metrics.clusterNotOwner.Add(1)
		writeErrorJSON(w, http.StatusMisdirectedRequest,
			fmt.Sprintf("replica %s does not own %s and has it neither built nor cached", cl.Self(), key))
		return true, nil
	}

	if cl.Owns(key) {
		return false, nil
	}

	// Non-owner with a client request: peer-fill from the owner.
	uri := r.URL.RequestURI()
	res, err := s.clusterFetch(r, key, uri, bodyKey)
	if err != nil {
		// Owner and fallback both unreachable (or both declined): build
		// locally.  By now the dead owner's circuit is open or opening,
		// so ownership has rehashed and local is the correct authority.
		s.metrics.clusterLocalFallbacks.Add(1)
		return false, nil
	}
	s.metrics.clusterForwarded.Add(1)
	return true, s.replayFill(w, res)
}

// clusterFetch runs the hedged peer-fill, collapsing and caching
// cacheable bodies through the artifact cache's singleflight.
func (s *Server) clusterFetch(r *http.Request, key, uri, bodyKey string) (*cluster.FillResult, error) {
	cl := s.cfg.Cluster
	if bodyKey == "" {
		return cl.Fill(r.Context(), key, uri)
	}
	v, _, err := s.cache.GetOrBuild(r.Context(), bodyKey, func(bctx context.Context) (cache.Value, error) {
		res, err := cl.Fill(bctx, key, uri)
		if err != nil {
			return nil, err
		}
		if res.Status != http.StatusOK {
			// Replayable but not cacheable (e.g. a 503 from a saturated
			// owner): carry it through the error path.
			return nil, &errFillStatus{res: res}
		}
		return fillBody{body: res.Body, contentType: res.ContentType}, nil
	})
	if err != nil {
		var fe *errFillStatus
		if errors.As(err, &fe) {
			return fe.res, nil
		}
		return nil, err
	}
	fb := v.(fillBody)
	return &cluster.FillResult{
		Status:      http.StatusOK,
		Body:        fb.body,
		ContentType: fb.contentType,
	}, nil
}

// replayFill writes a peer's response verbatim: status, body,
// Content-Type, and — critically for 503 backpressure — the Retry-After
// header, so a saturated owner's throttle signal reaches the end client
// unchanged.
func (s *Server) replayFill(w http.ResponseWriter, res *cluster.FillResult) error {
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	if res.RetryAfter != "" {
		w.Header().Set("Retry-After", res.RetryAfter)
	}
	if res.ServedBy != "" {
		w.Header().Set(cluster.ReplicaHeader, res.ServedBy)
	}
	w.Header().Set(cluster.ViaHeader, s.cfg.Cluster.Self())
	w.WriteHeader(res.Status)
	_, err := w.Write(res.Body)
	return err
}

// ClusterResponse is the /v1/cluster reply: ring state, per-peer breaker
// and traffic counters, and this replica's serving-side fill counters.
type ClusterResponse struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	Size    int    `json:"size,omitempty"`
	VNodes  int    `json:"vnodes,omitempty"`

	Peers []cluster.PeerStatus `json:"peers,omitempty"`

	// Outgoing fill counters (this replica asking others).
	PeerFills      int64 `json:"peer_fills"`
	PeerFillErrors int64 `json:"peer_fill_errors"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	Declines       int64 `json:"declines"`

	// Serving-side counters (others asking this replica, and local work).
	FillsServed    int64 `json:"fills_served"`
	NotOwner       int64 `json:"not_owner"`
	Forwarded      int64 `json:"forwarded"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	LocalBuilds    int64 `json:"local_builds"`

	// Ownership lookup, present when the request carried ?key=... .
	Key        string   `json:"key,omitempty"`
	Owner      string   `json:"owner,omitempty"`
	Preference []string `json:"preference,omitempty"`
}

// handleCluster serves cluster introspection.  Without cluster mode it
// reports {"enabled": false} so probes can distinguish "single node" from
// "endpoint missing".
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) error {
	cl := s.cfg.Cluster
	resp := ClusterResponse{Enabled: cl != nil}
	if cl != nil {
		st := cl.Status()
		resp.Self = st.Self
		resp.Size = cl.Size()
		resp.VNodes = st.VNodes
		resp.Peers = st.Peers
		resp.PeerFills = st.Fills
		resp.PeerFillErrors = st.FillErrors
		resp.Hedges = st.Hedges
		resp.HedgeWins = st.HedgeWins
		resp.Declines = st.Declines
		resp.FillsServed = s.metrics.clusterFillsServed.Load()
		resp.NotOwner = s.metrics.clusterNotOwner.Load()
		resp.Forwarded = s.metrics.clusterForwarded.Load()
		resp.LocalFallbacks = s.metrics.clusterLocalFallbacks.Load()
		resp.LocalBuilds = s.metrics.localBuilds()
		if key := decodeQuery(r.URL.RawQuery).vals[qKey]; key != "" {
			resp.Key = key
			resp.Owner = cl.Owner(key)
			resp.Preference = cl.Preference(key)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}
