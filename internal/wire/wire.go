// Package wire is the shared HTTP client of the cluster plane: one pooled
// client construction (keep-alive transport, per-host limits, deadlines)
// used by the router's upstream fan-out, the health checker, the
// replication follower and the bench/scenario load generators; StatusError,
// which turns a peer's non-2xx answer into an error carrying its message;
// and each client's row in the "spocus_wire" expvar (connection reuse vs.
// dials, retries by cause, batch sizes).
//
// It sends each request once. Whether a failed request may be resent is
// the caller's rule: the router's is that a 429 or 503 status was not
// applied and may always be resent, while a transport error is ambiguous
// and is resent only for a request the backend can recognise as a
// duplicate (an Idempotency-Key).
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
// reuse vs. fresh dials. It sends once: retrying is the caller's rule.
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
// peer's decoded error message.
type StatusError struct {
	URL    string
	Status int
	Msg    string
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
// JSON response into out (when non-nil). Non-2xx → *StatusError.
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

// NoteRetry ticks the retries-by-cause counter for a caller's retry (the
// router's resends after a transport error or a 429/503).
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
