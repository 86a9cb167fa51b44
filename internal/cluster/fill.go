package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ipg/internal/breaker"
)

// ErrSelfOwner is returned by Fill when the ring (as currently alive)
// says this replica owns the key, so the caller should build locally
// instead of fetching.
var ErrSelfOwner = errors.New("cluster: this replica owns the key")

// errDeclined is the terminal error when every fill leg answered 421
// (not owner, not cached) — a transient ownership disagreement; the
// caller falls back to building locally.
var errDeclined = errors.New("cluster: every peer declined the fill (not owner, not cached)")

// FillResult is one peer's response to a fill, replayed verbatim to the
// client by the serving layer.  Status can be any HTTP status the peer
// produced: a 503 from a saturated owner passes through — with its
// Retry-After — rather than masquerading as a local failure.
type FillResult struct {
	Status      int
	Body        []byte
	ContentType string
	RetryAfter  string
	ServedBy    string // replica that produced the body (ReplicaHeader, or the peer URL)
	Hedged      bool   // answered by the hedge leg, not the owner
}

// fillFlight is one in-progress fill fetch shared by every concurrent
// caller with the same request URI (the cross-node half of the
// groupcache-style singleflight; the in-process half is the build
// singleflight inside internal/cache).
type fillFlight struct {
	done chan struct{}
	res  *FillResult
	err  error
}

// Fill fetches the response for uri (path + query, e.g.
// "/v1/metrics?net=hsn&l=3") from the key's owner, hedging to the next
// alive ring successor after HedgeDelay.  Concurrent Fills for the same
// uri collapse into one fetch.  The fetch itself is detached from any
// single caller's cancellation (bounded by FetchTimeout) so one
// impatient client cannot kill a fill other clients are waiting on; a
// caller whose ctx expires returns promptly with its own ctx error.
//
// Errors: ErrSelfOwner means "you own it, build locally"; any other
// error means every leg failed and the caller should fall back to
// building locally rather than surfacing a 5xx.
func (c *Cluster) Fill(ctx context.Context, key, uri string) (*FillResult, error) {
	owner, fallback, self := c.route(key)
	if self {
		return nil, ErrSelfOwner
	}

	c.mu.Lock()
	f := c.flights[uri]
	if f == nil {
		f = &fillFlight{done: make(chan struct{})}
		c.flights[uri] = f
		c.fills.Add(1)
		// Detach from this caller: the fetch budget is FetchTimeout, not
		// whichever waiter happens to have the shortest deadline.
		fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.FetchTimeout)
		go func() {
			defer cancel()
			res, err := c.fetchHedged(fctx, owner, fallback, uri)
			if err != nil {
				c.fillErrors.Add(1)
			}
			c.mu.Lock()
			delete(c.flights, uri)
			c.mu.Unlock()
			f.res, f.err = res, err
			close(f.done)
		}()
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// legOut is one fetch leg's outcome.
type legOut struct {
	res    *FillResult
	err    error
	hedged bool
}

// fetchHedged runs the two-leg hedged fetch: the owner immediately, the
// fallback either after HedgeDelay or as soon as the owner leg fails.
// The first usable response (any HTTP status except a 421 decline) wins;
// a declined or failed pair surfaces the first error.
func (c *Cluster) fetchHedged(ctx context.Context, owner, fallback, uri string) (*FillResult, error) {
	resc := make(chan legOut, 2) // buffered: an abandoned leg must not block
	c.legs.Add(1)
	go c.fetchLeg(ctx, owner, uri, false, resc)
	outstanding := 1
	hedgeLaunched := fallback == ""
	var timerC <-chan time.Time
	if !hedgeLaunched && c.cfg.HedgeDelay >= 0 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		timerC = t.C
	}
	launchHedge := func() {
		hedgeLaunched = true
		timerC = nil
		outstanding++
		c.hedges.Add(1)
		c.legs.Add(1)
		//lint:ignore goroutineleak joined by the enclosing select loop, which receives from resc until outstanding drains; resc is buffered (cap 2) so a leg whose result is abandoned on early return can never block
		go c.fetchLeg(ctx, fallback, uri, true, resc)
	}
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timerC:
			launchHedge()
		case out := <-resc:
			outstanding--
			if out.err == nil && out.res.Status != http.StatusMisdirectedRequest {
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return out.res, nil
			}
			if out.err == nil {
				c.declines.Add(1)
				out.err = errDeclined
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if !hedgeLaunched {
				// The owner leg failed before the hedge timer: race the
				// fallback immediately instead of waiting out the delay.
				launchHedge()
			} else if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}

// fetchLeg runs one GET against one peer and reports the outcome to its
// breaker: transport errors and timeouts are genuine failures (a dead or
// frozen replica), while any HTTP response — including 5xx — proves the
// peer alive and closes its circuit.  A leg cancelled because the other
// leg won says nothing about its peer.
func (c *Cluster) fetchLeg(ctx context.Context, peer, uri string, hedged bool, out chan<- legOut) {
	defer c.legs.Done()
	res, err := c.doFetch(ctx, peer, uri, hedged)
	out <- legOut{res: res, err: err, hedged: hedged}
}

// reportFetchError reports a failed request or body read to peer's
// breaker.  Fill detaches the fetch context from its callers, so
// context.Canceled comes only from the fill's own cancel once the other
// leg has won: the peer may be slow but alive, and the verdict is
// Neutral.  A FetchTimeout expiry is a DeadlineExceeded and stays a Fail,
// so a frozen peer still opens its circuit.
func (c *Cluster) reportFetchError(peer string, pc *peerCounters, err error) {
	if errors.Is(err, context.Canceled) {
		c.breakers.Report(peer, breaker.Neutral, time.Now())
		return
	}
	pc.errors.Add(1)
	c.breakers.Report(peer, breaker.Fail, time.Now())
}

func (c *Cluster) doFetch(ctx context.Context, peer, uri string, hedged bool) (*FillResult, error) {
	if err := c.breakers.Allow(peer, time.Now()); err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	pc := c.perPeer[peer]
	pc.fetches.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+uri, nil)
	if err != nil {
		c.breakers.Report(peer, breaker.Neutral, time.Now())
		return nil, err
	}
	req.Header.Set(FillHeader, "1")
	resp, err := c.client.Do(req)
	if err != nil {
		c.reportFetchError(peer, pc, err)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxFillBytes+1))
	if err != nil {
		c.reportFetchError(peer, pc, err)
		return nil, err
	}
	if int64(len(body)) > c.cfg.MaxFillBytes {
		pc.errors.Add(1)
		c.breakers.Report(peer, breaker.Neutral, time.Now())
		return nil, fmt.Errorf("cluster: fill body from %s exceeds %d bytes", peer, c.cfg.MaxFillBytes)
	}
	c.breakers.Report(peer, breaker.OK, time.Now())
	servedBy := resp.Header.Get(ReplicaHeader)
	if servedBy == "" {
		servedBy = peer
	}
	return &FillResult{
		Status:      resp.StatusCode,
		Body:        body,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		ServedBy:    servedBy,
		Hedged:      hedged,
	}, nil
}
