// Package client is the Go client for the fpbd simulation service
// (internal/serve). Client makes single calls to one daemon (Submit,
// Result, Health) and never retries. Fleet (fleet.go) routes each job to
// its key's consistent-hash ring owner over a set of these clients, one
// member or many, and owns the only retry policy: 429 pushback moves to
// the next replica or waits the server-advertised Retry-After (jittered,
// so a saturated fleet never sees synchronized retry storms), and a dead
// node fails over. Fleet.Run adapts to exp.Backend so fpbexp can offload
// whole figure runs to the daemons.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fpb/internal/serve"
	"fpb/internal/system"
)

// Client talks to one fpbd daemon.
type Client struct {
	base string
	hc   *http.Client
}

// Normalize canonicalizes a daemon address ("host:port" or a full http://
// URL) into the base-URL form every fleet layer uses as the node's identity.
// Ring placement hashes these strings, so all participants must normalize
// the same way — spelling a node "10.0.0.1:8080" here and
// "http://10.0.0.1:8080" there would split it into two ring members.
func Normalize(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// New returns a client for addr ("host:port" or a full http:// URL).
func New(addr string) *Client {
	return &Client{
		base: Normalize(addr),
		hc:   &http.Client{},
	}
}

// Base returns the client's normalized base URL (its fleet identity).
func (c *Client) Base() string { return c.base }

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: health: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health: %s", resp.Status)
	}
	return nil
}

// BusyError is 429 pushback from a daemon whose job queue is full. After
// carries the server's exact Retry-After value (0 when absent/unparseable).
// It is retryable: on the next replica at once, or on the same node after
// waiting (what Fleet.Walk does).
type BusyError struct {
	Node  string
	After time.Duration
	Msg   string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy (429): %s", e.Msg)
}

// StatusError is a terminal non-2xx response (bad spec, failed simulation,
// draining node, internal error). Code classifies it: 5xx/503 suggest the
// node itself is unhealthy (Fleet.Walk fails over), 4xx means the request
// itself is bad and would fail identically on every replica.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %d: %s", e.Code, e.Msg)
}

// defaultRetryDelay is used when a 429 carries no parseable Retry-After.
const defaultRetryDelay = 500 * time.Millisecond

// RetryDelay converts a Retry-After hint into the wait actually slept: the
// server's exact advertised value (or defaultRetryDelay when absent),
// jittered uniformly over [d/2, d] ("equal jitter"). Without jitter, every
// client a saturated daemon rejected in the same window would sleep the
// identical advertised delay and stampede back in lockstep, re-saturating
// the queue; the randomized half keeps mean backoff at 3d/4 while spreading
// re-arrivals across half the advertised window.
func RetryDelay(hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = defaultRetryDelay
	}
	half := d / 2
	// math/rand's global source is safe for concurrent use; retry timing
	// deliberately does NOT come from the simulation's deterministic RNG —
	// it must differ across clients, never across results.
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// parseRetryAfter reads a Retry-After header value: delay-seconds (integer
// per the RFC, fractional as our server emits for sub-second configs) or an
// HTTP-date. Returns 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(h, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Submit posts spec exactly once — no retries, no waiting. Queue-full
// pushback returns a *BusyError carrying the parsed Retry-After; any other
// non-OK response returns a *StatusError; transport failures return the
// wrapped net/http error. Fleet.Walk builds replica failover on this: it
// wants the 429 immediately so it can try the next ring owner instead of
// camping on a saturated node.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: reading response: %w", err)
	}
	var st serve.JobStatus
	if jerr := json.Unmarshal(raw, &st); jerr != nil && resp.StatusCode == http.StatusOK {
		return serve.JobStatus{}, fmt.Errorf("client: decoding response: %w", jerr)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return st, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return serve.JobStatus{}, &BusyError{
			Node:  c.base,
			After: parseRetryAfter(resp.Header.Get("Retry-After")),
			Msg:   st.Error,
		}
	default:
		msg := st.Error
		if msg == "" {
			msg = strings.TrimSpace(string(raw))
		}
		return serve.JobStatus{}, &StatusError{Code: resp.StatusCode, Msg: msg}
	}
}

// Result fetches the stored result for a content key (GET /v1/results/{key})
// from this node's local store. ok=false is a clean miss (the node does not
// hold the key); err covers transport and server failures.
func (c *Client) Result(ctx context.Context, key string) (res system.Result, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/results/"+key, nil)
	if err != nil {
		return system.Result{}, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return system.Result{}, false, fmt.Errorf("client: result: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return system.Result{}, false, fmt.Errorf("client: result: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(raw, &res); err != nil {
			return system.Result{}, false, fmt.Errorf("client: result: %w", err)
		}
		return res, true, nil
	case http.StatusNotFound:
		return system.Result{}, false, nil
	default:
		return system.Result{}, false, &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
}
