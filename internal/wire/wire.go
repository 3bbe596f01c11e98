// Package wire is the shared HTTP data plane: one client construction
// (pooled keep-alive transport, per-host limits, deadlines) and one
// retry/backoff policy for every component that speaks HTTP — the router's
// upstream fan-out, the health checker, the replication follower, and the
// bench/scenario load generators. Before this package each of them carried
// its own hand-rolled http.Client; now they share the pool discipline and
// the idempotency-key replay rules, and every client feeds the same
// "spocus_wire" expvar (connection reuse vs. dials, retries by cause,
// batch sizes).
//
// Replay rules: a non-2xx *status* (429 backpressure, 503 mid-handoff)
// means the request was NOT applied, so it is always safe to retry after
// backoff. A *transport* error (connection reset, timeout) is ambiguous —
// the peer may have applied the request before the connection died — so
// transport retries are attempted only for requests that are idempotent by
// construction: GETs, and POSTs carrying an Idempotency-Key header (the
// engine's dedupe table answers the replay from the log instead of
// applying it twice).
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"
)

// Config tunes a Client. The zero value is a sane data-plane default.
type Config struct {
	// Name labels this client's row in the spocus_wire expvar.
	Name string
	// Timeout caps one attempt end to end (default 30s). Per-request
	// contexts can only shorten it.
	Timeout time.Duration
	// MaxIdleConns / MaxIdleConnsPerHost size the keep-alive pool
	// (defaults 1024 / 256). MaxConnsPerHost additionally caps concurrent
	// connections per backend (default 0: unlimited).
	MaxIdleConns        int
	MaxIdleConnsPerHost int
	MaxConnsPerHost     int
	// IdleConnTimeout evicts pooled connections (default 90s).
	IdleConnTimeout time.Duration
	// RetryAttempts bounds total tries for retryable requests (default 5);
	// RetryBackoff is the first sleep, doubling per attempt (default 50ms).
	RetryAttempts int
	RetryBackoff  time.Duration
	// Transport overrides the pooled transport (tests). Pool knobs are
	// ignored when set.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "client"
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxIdleConns <= 0 {
		c.MaxIdleConns = 1024
	}
	if c.MaxIdleConnsPerHost <= 0 {
		c.MaxIdleConnsPerHost = 256
	}
	if c.IdleConnTimeout <= 0 {
		c.IdleConnTimeout = 90 * time.Second
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 5
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// Client is one pooled HTTP client plus its share of the wire metrics.
// Safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
	m   clientMetrics
}

// New builds a client from cfg and registers it with the spocus_wire
// expvar. Call Close when done to drop idle connections and unregister.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConns:        cfg.MaxIdleConns,
			MaxIdleConnsPerHost: cfg.MaxIdleConnsPerHost,
			MaxConnsPerHost:     cfg.MaxConnsPerHost,
			IdleConnTimeout:     cfg.IdleConnTimeout,
		}
	}
	c := &Client{cfg: cfg, hc: &http.Client{Transport: rt, Timeout: cfg.Timeout}}
	clients.Add(c)
	return c
}

// Close releases pooled connections and removes the client from the
// expvar registry. The client stays usable (new connections dial fresh).
func (c *Client) Close() {
	if t, ok := c.hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	clients.Remove(c)
}

// Do sends one request through the pooled transport, counting connection
// reuse vs. fresh dials. No retries — use the *Retry helpers for policy.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.m.reused.Add(1)
			} else {
				c.m.dials.Add(1)
			}
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	c.m.requests.Add(1)
	return c.hc.Do(req)
}

// Get issues a GET through Do.
func (c *Client) Get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// Post issues a POST through Do.
func (c *Client) Post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.Do(req)
}

// StatusError is a non-2xx response surfaced as an error, carrying the
// peer's decoded error message and any Retry-After hint.
type StatusError struct {
	URL        string
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s: status %d: %s", e.URL, e.Status, e.Msg)
	}
	return fmt.Sprintf("%s: status %d", e.URL, e.Status)
}

// Retryable reports whether err is a status the peer promises was not
// applied (429 backpressure, 503 mid-handoff/unavailable) — always safe
// to retry after backoff.
func Retryable(err error) bool {
	var se *StatusError
	return errors.As(err, &se) &&
		(se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable)
}

// IsStatus reports whether err is a StatusError with the given code.
func IsStatus(err error, status int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

// statusError builds a StatusError from a drained non-2xx response body.
func statusError(url string, resp *http.Response, body []byte) *StatusError {
	se := &StatusError{URL: url, Status: resp.StatusCode}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil {
		se.Msg = e.Error
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// GetJSON GETs url and decodes the 2xx JSON response into out (when
// non-nil). Non-2xx → *StatusError.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	resp, err := c.Get(ctx, url)
	if err != nil {
		return err
	}
	return drainJSON(url, resp, out)
}

// PostJSON posts in (nil for an empty body) to url and decodes the 2xx
// JSON response into out (when non-nil). Non-2xx → *StatusError. One
// attempt — see PostBytesRetry for the backoff policy.
func (c *Client) PostJSON(ctx context.Context, url string, in, out any, hdr http.Header) error {
	body, err := marshalBody(in)
	if err != nil {
		return err
	}
	return c.PostBytes(ctx, url, "application/json", body, out, hdr)
}

// PostBytes posts a raw body under contentType and decodes the 2xx JSON
// response into out (when non-nil). Non-2xx → *StatusError. The transport
// for pre-encoded payloads — binary state images, compacted envelopes.
func (c *Client) PostBytes(ctx context.Context, url, contentType string, body []byte, out any, hdr http.Header) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return drainJSON(url, resp, out)
}

// PostBytesRetry is PostBytes under the client's retry policy: retryable
// statuses (429/503) back off and retry up to RetryAttempts total tries,
// honoring a Retry-After hint when the peer sent one. Transport errors
// are retried only when the request carries an Idempotency-Key header —
// the replay rule that makes an ambiguous resend safe.
func (c *Client) PostBytesRetry(ctx context.Context, url, contentType string, body []byte, out any, hdr http.Header) error {
	keyed := hdr.Get("Idempotency-Key") != ""
	var err error
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			if serr := c.sleepBackoff(ctx, attempt-1, err); serr != nil {
				return err
			}
		}
		err = c.PostBytes(ctx, url, contentType, body, out, hdr)
		if err == nil {
			return nil
		}
		switch {
		case Retryable(err):
			var se *StatusError
			errors.As(err, &se)
			c.m.noteRetry(strconv.Itoa(se.Status))
		case keyed && !isStatusErr(err) && ctx.Err() == nil:
			c.m.noteRetry("transport")
		default:
			return err
		}
	}
	return err
}

func isStatusErr(err error) bool {
	var se *StatusError
	return errors.As(err, &se)
}

// sleepBackoff waits out the attempt's backoff (or the peer's Retry-After
// hint, when longer but still bounded), aborting early on ctx cancel.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, lastErr error) error {
	d := c.cfg.RetryBackoff << uint(attempt)
	var se *StatusError
	if errors.As(lastErr, &se) && se.RetryAfter > d && se.RetryAfter <= 5*time.Second {
		d = se.RetryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NoteRetry ticks the retries-by-cause counter for callers that run their
// own retry loop (the router's keyed replay across backend failover).
func (c *Client) NoteRetry(cause string) { c.m.noteRetry(cause) }

// ObserveBatch records one sent batch of n steps in the wire batch-size
// histogram.
func (c *Client) ObserveBatch(n int) {
	c.m.batches.Add(1)
	c.m.batchItems.Add(int64(n))
	c.m.batchSize.Observe(int64(n))
}

// PostRaw posts body (under contentType, when not empty) to url and
// returns the 2xx response bytes undecoded — the transport for payloads the
// caller relays (ship images) or reads itself (batch answers).
// Non-2xx → *StatusError.
func (c *Client) PostRaw(ctx context.Context, url, contentType string, body []byte) ([]byte, error) {
	resp, err := c.Post(ctx, url, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, statusError(url, resp, raw)
	}
	return raw, nil
}

func marshalBody(in any) ([]byte, error) {
	if in == nil {
		return nil, nil
	}
	return json.Marshal(in)
}

// drainJSON consumes resp: 2xx decodes into out, everything else becomes
// a *StatusError. The body is always fully read so the connection returns
// to the pool.
func drainJSON(url string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		io.Copy(io.Discard, resp.Body)
		return statusError(url, resp, body)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode response: %w", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
