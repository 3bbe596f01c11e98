package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
)

// HealthConfig tunes the backend health checker.
type HealthConfig struct {
	// Interval between probes of an up backend (default 1s).
	Interval time.Duration
	// Timeout of a single probe (default 500ms).
	Timeout time.Duration
	// FailAfter consecutive probe failures mark a backend down (default 2).
	FailAfter int
	// MaxBackoff caps the exponential probe backoff while a backend is
	// down (default 5s). The first down-probe fires after Interval, then
	// 2×, 4×, ... up to this cap, so a dead backend is not hammered.
	MaxBackoff time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// checker probes each ring member's /healthz and flips its up/down state.
// One goroutine per backend: probes of a slow backend never delay probes
// of the others.
type checker struct {
	ring   *Ring
	cfg    HealthConfig
	client *wire.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	kick map[string]chan struct{} // wake a backend's probe loop early
}

func startChecker(ring *Ring, cfg HealthConfig, client *wire.Client) *checker {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &checker{
		ring:   ring,
		cfg:    cfg,
		client: client,
		ctx:    ctx,
		cancel: cancel,
		kick:   make(map[string]chan struct{}),
	}
	for _, addr := range ring.Members() {
		kick := make(chan struct{}, 1)
		c.kick[addr] = kick
		c.wg.Add(1)
		go c.watch(addr, kick)
	}
	return c
}

func (c *checker) stop() {
	c.cancel()
	c.wg.Wait()
}

// markDown flips addr down immediately (called by the router on a proxy
// connection failure) and kicks its probe loop so recovery is noticed on
// the health path, not the data path.
func (c *checker) markDown(addr string) {
	c.ring.SetUp(addr, false)
	c.mu.Lock()
	kick := c.kick[addr]
	c.mu.Unlock()
	if kick != nil {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
}

// watch is one backend's probe loop: steady Interval probes while up,
// exponential backoff (capped) while down, FailAfter consecutive failures
// to flip down, a single success to flip up.
func (c *checker) watch(addr string, kick <-chan struct{}) {
	defer c.wg.Done()
	fails := 0
	delay := c.cfg.Interval
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-kick:
		case <-timer.C:
		}
		ok := c.probe(addr)
		up := c.ring.Up(addr)
		switch {
		case ok && !up:
			c.ring.SetUp(addr, true)
			fallthrough
		case ok:
			fails = 0
			delay = c.cfg.Interval
		case up:
			fails++
			if fails >= c.cfg.FailAfter {
				c.ring.SetUp(addr, false)
			}
		default: // still down: back off
			if delay *= 2; delay > c.cfg.MaxBackoff {
				delay = c.cfg.MaxBackoff
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(delay)
	}
}

// probe is one bounded GET /healthz.
func (c *checker) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
