package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"ipg/internal/loadgen"
)

// response is the first answer seen for a distinct request, kept for the
// output oracle.
type response struct {
	req    request
	status int
	etag   string
	body   []byte
}

// client is the generator's HTTP side: at most conns keep-alive connections.
type client struct {
	http *http.Client
	base string

	mu        sync.Mutex
	responses map[string]*response
}

func newClient(base string, conns int) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		},
		base:      base,
		responses: map[string]*response{},
	}
}

// do sends r and reports whether it succeeded (200, or 304 to a
// revalidation).  buf is the caller's reusable body buffer.  The first
// answer to each distinct request is kept for the oracle.
func (c *client) do(r *request, buf *bytes.Buffer) bool {
	req, err := http.NewRequest(http.MethodGet, c.base+r.path, nil)
	if err != nil {
		return false
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return false
	}
	id := r.id()
	c.mu.Lock()
	if _, seen := c.responses[id]; !seen {
		c.responses[id] = &response{req: *r, status: resp.StatusCode, etag: resp.Header.Get("Etag"), body: bytes.Clone(buf.Bytes())}
	}
	c.mu.Unlock()
	if r.etag != "" {
		return resp.StatusCode == http.StatusNotModified
	}
	return resp.StatusCode == http.StatusOK
}

// errFailed marks a request that did not succeed.
var errFailed = errors.New("request failed")

// bufs are the workers' reusable response-body buffers.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// runClosed drives the repository's load generator closed-loop on conns
// workers for d, sending request first+i of the stream as its request i.
func runClosed(c *client, gen func(int64) request, first int64, classes int, d time.Duration) (*loadgen.Result, error) {
	opts := loadgen.Options{Conns: conns, Duration: d, Classes: classes}
	return loadgen.Run(context.Background(), opts, func(i int64) (int, error) {
		r := gen(first + i)
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		if !c.do(&r, buf) {
			return r.class, errFailed
		}
		return r.class, nil
	})
}
