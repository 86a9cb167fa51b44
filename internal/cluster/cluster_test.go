package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipg/internal/breaker"
)

// TestParsePeers checks the shared -peers validator.
func TestParsePeers(t *testing.T) {
	good, err := ParsePeers(" http://a:8080 ,https://b.example.com:9090,http://10.0.0.1:80")
	if err != nil {
		t.Fatalf("valid peer list rejected: %v", err)
	}
	want := []string{"http://a:8080", "https://b.example.com:9090", "http://10.0.0.1:80"}
	if len(good) != len(want) {
		t.Fatalf("ParsePeers = %v, want %v", good, want)
	}
	for i := range want {
		if good[i] != want[i] {
			t.Errorf("peer[%d] = %q, want %q", i, good[i], want[i])
		}
	}

	bad := []string{
		"",
		"http://a:8080,",
		"a:8080",
		"ftp://a:8080",
		"http://",
		"http://a:8080/path",
		"http://a:8080?q=1",
		"http://a:8080#frag",
		"http://user@a:8080",
		"http://a:8080,http://a:8080",
	}
	for _, s := range bad {
		if _, err := ParsePeers(s); err == nil {
			t.Errorf("ParsePeers(%q) accepted, want error", s)
		}
	}
}

// TestNewRequiresSelfInPeers checks construction validation.
func TestNewRequiresSelfInPeers(t *testing.T) {
	_, err := New(Config{Self: "http://x:1", Peers: []string{"http://a:1", "http://b:1"}})
	if err == nil {
		t.Fatal("self outside peer list accepted")
	}
	c, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a:1" || c.Size() != 2 {
		t.Fatalf("Self=%s Size=%d, want http://a:1, 2", c.Self(), c.Size())
	}
}

// keyOwnedBy scans synthetic keys until it finds one the target peer
// owns, so tests can steer fills toward a specific replica.
func keyOwnedBy(t *testing.T, c *Cluster, target string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-key-%d", i)
		if c.Owner(k) == target {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 10000 probes", target)
	return ""
}

// newTestCluster builds a 3-replica cluster whose two remote peers are
// real httptest servers; self is a URL nothing listens on (self never
// receives fills — it is the caller).
func newTestCluster(t *testing.T, cfg Config, ownerHandler, fallbackHandler http.Handler) (c *Cluster, owner, fallback string) {
	t.Helper()
	s1 := httptest.NewServer(ownerHandler)
	s2 := httptest.NewServer(fallbackHandler)
	t.Cleanup(s1.Close)
	t.Cleanup(s2.Close)
	cfg.Self = "http://self.invalid:1"
	cfg.Peers = []string{cfg.Self, s1.URL, s2.URL}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, s1.URL, s2.URL
}

// TestFillSelfOwner checks that Fill refuses to fetch keys this replica
// owns.
func TestFillSelfOwner(t *testing.T) {
	c, _, _ := newTestCluster(t, Config{}, http.NotFoundHandler(), http.NotFoundHandler())
	key := keyOwnedBy(t, c, c.Self())
	if _, err := c.Fill(context.Background(), key, "/v1/build"); !errors.Is(err, ErrSelfOwner) {
		t.Fatalf("Fill(own key) = %v, want ErrSelfOwner", err)
	}
}

// TestFillFromOwner checks the happy path: the owner answers, the fill
// carries its body, headers, and replica identity, and the request is
// marked with the fill header so the peer will not forward it again.
func TestFillFromOwner(t *testing.T) {
	var gotFillHeader atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFillHeader.Store(r.Header.Get(FillHeader) != "")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(ReplicaHeader, "http://owner.example:1")
		fmt.Fprint(w, `{"ok":true}`)
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: -1}, h, h)
	key := keyOwnedBy(t, c, ownerURL)

	res, err := c.Fill(context.Background(), key, "/v1/metrics?net=hsn")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || string(res.Body) != `{"ok":true}` {
		t.Fatalf("res = %d %q", res.Status, res.Body)
	}
	if res.ContentType != "application/json" {
		t.Errorf("ContentType = %q", res.ContentType)
	}
	if res.ServedBy != "http://owner.example:1" {
		t.Errorf("ServedBy = %q, want the replica header value", res.ServedBy)
	}
	if res.Hedged {
		t.Error("owner-leg response marked Hedged")
	}
	if !gotFillHeader.Load() {
		t.Error("fill request did not carry the fill header")
	}
}

// TestFillRetryAfterPreserved checks that a 503 from a saturated owner
// passes through the fill verbatim — status, body, and Retry-After — so
// backpressure reaches the end client instead of being eaten.
func TestFillRetryAfterPreserved(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "saturated")
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: -1}, h, h)
	key := keyOwnedBy(t, c, ownerURL)

	res, err := c.Fill(context.Background(), key, "/v1/build?net=hsn")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("Status = %d, want 503", res.Status)
	}
	if res.RetryAfter != "7" {
		t.Fatalf("RetryAfter = %q, want \"7\"", res.RetryAfter)
	}
	if string(res.Body) != "saturated" {
		t.Fatalf("Body = %q", res.Body)
	}
}

// TestHedgeWinsAgainstSlowOwner checks the hedged read: when the owner
// stalls past HedgeDelay, the fallback leg answers and wins.  The losing
// owner leg is then cancelled, which must not count against the owner: at
// a breaker threshold of 1 a single Fail would cut a slow but alive owner
// out of the ring and rehash its keys onto a replica that builds them
// again.
func TestHedgeWinsAgainstSlowOwner(t *testing.T) {
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "slow-owner")
	})
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fast-fallback")
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: 5 * time.Millisecond, BreakerThreshold: 1}, slow, fast)
	defer close(release)
	key := keyOwnedBy(t, c, ownerURL)

	res, err := c.Fill(context.Background(), key, "/v1/metrics?net=hsn")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "fast-fallback" || !res.Hedged {
		t.Fatalf("res = %q (hedged=%v), want the hedge leg's body", res.Body, res.Hedged)
	}
	if c.hedges.Load() != 1 || c.hedgeWins.Load() != 1 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1/1", c.hedges.Load(), c.hedgeWins.Load())
	}
	c.legs.Wait() // the cancelled owner leg has made its breaker report
	if st := c.breakers.State(ownerURL, time.Now()); st != breaker.Closed {
		t.Errorf("owner breaker %s after losing the hedge race, want closed", st)
	}
	if c.Owner(key) != ownerURL {
		t.Errorf("key rehashed to %s, want it to stay with the owner %s", c.Owner(key), ownerURL)
	}
}

// TestImmediateHedgeOnOwnerFailure checks that an owner that fails fast
// (connection refused) triggers the hedge immediately instead of waiting
// out a long HedgeDelay.
func TestImmediateHedgeOnOwnerFailure(t *testing.T) {
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fallback-body")
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on
	fb := httptest.NewServer(fast)
	t.Cleanup(fb.Close)

	c, err := New(Config{
		Self:       "http://self.invalid:1",
		Peers:      []string{"http://self.invalid:1", deadURL, fb.URL},
		HedgeDelay: time.Hour, // only an immediate hedge can pass this test
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, deadURL)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Fill(ctx, key, "/v1/metrics?net=hsn")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "fallback-body" {
		t.Fatalf("Body = %q", res.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fill took %v: hedge clearly waited for the timer", elapsed)
	}
}

// TestAllLegsDecline checks that a cluster-wide 421 (nobody owns or has
// the key — a transient ownership disagreement) surfaces as an error so
// the caller falls back to building locally, and counts declines.
func TestAllLegsDecline(t *testing.T) {
	decline := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusMisdirectedRequest)
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: time.Millisecond}, decline, decline)
	key := keyOwnedBy(t, c, ownerURL)

	_, err := c.Fill(context.Background(), key, "/v1/build?net=hsn")
	if !errors.Is(err, errDeclined) {
		t.Fatalf("Fill = %v, want errDeclined", err)
	}
	if c.declines.Load() == 0 {
		t.Error("declines counter not incremented")
	}
	if c.fillErrors.Load() != 1 {
		t.Errorf("fillErrors = %d, want 1", c.fillErrors.Load())
	}
}

// TestBreakerCutsDeadPeer checks the self-healing loop: repeated fetch
// failures open the dead peer's circuit, OpenPeers reports it, and
// ownership of its keys rehashes onto the survivors.
func TestBreakerCutsDeadPeer(t *testing.T) {
	alive := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ok := httptest.NewServer(alive)
	t.Cleanup(ok.Close)

	self := "http://self.invalid:1"
	c, err := New(Config{
		Self:             self,
		Peers:            []string{self, deadURL, ok.URL},
		HedgeDelay:       -1, // timer hedge off; failure-triggered failover still applies
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, deadURL)

	// Each fill fails over to the live fallback (availability is never
	// sacrificed) while the dead owner's breaker accumulates failures.
	// Distinct URIs so the singleflight does not collapse the two fills.
	for i := 0; i < 2; i++ {
		res, err := c.Fill(context.Background(), key, fmt.Sprintf("/x?i=%d", i))
		if err != nil {
			t.Fatalf("fill #%d: %v", i, err)
		}
		if string(res.Body) != "ok" {
			t.Fatalf("fill #%d body = %q, want the fallback's", i, res.Body)
		}
	}
	if got := c.OpenPeers(); got != 1 {
		t.Fatalf("OpenPeers = %d, want 1", got)
	}
	if owner := c.Owner(key); owner == deadURL {
		t.Fatalf("key still owned by dead peer %s after its circuit opened", deadURL)
	}
	st := c.Status()
	var foundOpen bool
	for _, ps := range st.Peers {
		if ps.Peer == deadURL && ps.Breaker == "open" {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Fatalf("Status does not show %s open: %+v", deadURL, st.Peers)
	}
}

// TestFillSingleflight checks the cross-node singleflight: concurrent
// fills for the same URI collapse into one backend fetch.
func TestFillSingleflight(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
		fmt.Fprint(w, "shared-body")
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: -1}, h, h)
	key := keyOwnedBy(t, c, ownerURL)

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	bodies := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Fill(context.Background(), key, "/v1/metrics?net=hsn&l=3")
			errs[i] = err
			if err == nil {
				bodies[i] = string(res.Body)
			}
		}(i)
	}
	// Give every caller time to join the flight before releasing the
	// backend; joining is what we are testing, so a short settle is fine
	// (late joiners would only make hits > 1, never a false pass).
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if bodies[i] != "shared-body" {
			t.Fatalf("caller %d body = %q", i, bodies[i])
		}
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend hit %d times, want 1 (singleflight)", got)
	}
	if got := c.fills.Load(); got != 1 {
		t.Fatalf("fills counter = %d, want 1", got)
	}
}

// TestFillCallerCancellation checks that a caller whose context expires
// leaves promptly while the shared fetch keeps its own budget.
func TestFillCallerCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	c, ownerURL, _ := newTestCluster(t, Config{HedgeDelay: -1}, h, h)
	key := keyOwnedBy(t, c, ownerURL)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Fill(ctx, key, "/v1/metrics?net=hsn")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Fill = %v, want the caller's own deadline error", err)
	}
}
