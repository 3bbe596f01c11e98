// Package replica is the replication plane: a Follower continuously tails a
// primary backend's committed WAL stream (session.Engine.StreamWAL over
// HTTP) into a hot standby engine, so the standby holds every acknowledged
// step of every session the primary serves — within a lag of the records
// still in flight. Because stepping is deterministic (§2: state and log are
// a function of the database and the input sequence alone), applying the
// primary's WAL records in order reconstructs its sessions exactly; no
// state diffing or page shipping is needed, the log IS the replica.
//
// The follower is crash-safe on both ends: records are appended to the
// standby's OWN WAL before they apply (so a follower restart replays them
// from local disk), and the stream position is persisted after each batch
// (REPLSTATE.json), so tailing resumes where it stopped. A position the
// primary has compacted away comes back as a Reset batch carrying the
// snapshot images — the follower bootstraps from those and resumes at the
// snapshot's base LSN.
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/wire"
)

// Config configures a Follower.
type Config struct {
	// Primary is the base URL of the backend to follow.
	Primary string
	// Dir is the standby engine's durability directory.
	Dir string
	// Shards is the standby engine's shard count (default GOMAXPROCS;
	// independent of the primary's — records re-hash by session ID).
	Shards int
	// Fsync is the standby WAL's durability policy (default FsyncAlways).
	Fsync session.FsyncPolicy
	// Poll is the long-poll wait per stream request (default 20s).
	Poll time.Duration
	// Client is the wire client for stream requests (default: one with a
	// timeout comfortably above Poll).
	Client *wire.Client
	// Logf receives progress lines (default: drop them).
	Logf func(format string, args ...any)
}

// shardPos is one primary shard's stream position as the follower sees it.
type shardPos struct {
	Applied   int64 `json:"applied"`   // highest LSN applied to the standby
	Committed int64 `json:"committed"` // primary's committed LSN at last contact
}

// replState is the persisted REPLSTATE.json: which primary, its shard
// count, and the applied position per primary shard.
type replState struct {
	Primary string     `json:"primary"`
	Shards  int        `json:"shards"`
	Pos     []shardPos `json:"pos"`
}

// Follower tails one primary into a hot standby engine.
type Follower struct {
	cfg        Config
	eng        *session.Engine // the standby
	client     *wire.Client
	ownsClient bool
	logf       func(string, ...any)
	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	started    atomic.Bool

	mu       sync.Mutex // guards st and the REPLSTATE file
	st       replState
	promoted atomic.Bool
}

// New builds a Follower and its standby engine (recovering any prior
// standby state from cfg.Dir). Call Start to begin tailing.
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: no primary URL")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: follower needs a durability dir")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Second
	}
	eng, err := session.NewEngine(session.Config{Dir: cfg.Dir, Shards: cfg.Shards, Fsync: cfg.Fsync})
	if err != nil {
		return nil, fmt.Errorf("replica: standby engine: %w", err)
	}
	f := &Follower{cfg: cfg, eng: eng, client: cfg.Client, logf: cfg.Logf}
	if f.client == nil {
		// Long-polls hold one connection per primary shard for up to Poll;
		// the client timeout must sit comfortably above that.
		f.client = wire.New(wire.Config{Name: "follower", Timeout: cfg.Poll + 15*time.Second})
		f.ownsClient = true
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if err := f.loadState(); err != nil {
		eng.Shutdown()
		return nil, err
	}
	return f, nil
}

// Engine returns the standby engine (read-only traffic and promotion).
func (f *Follower) Engine() *session.Engine { return f.eng }

// Primary returns the URL being followed.
func (f *Follower) Primary() string { return f.cfg.Primary }

func (f *Follower) statePath() string { return filepath.Join(f.cfg.Dir, "REPLSTATE.json") }

func (f *Follower) loadState() error {
	data, err := os.ReadFile(f.statePath())
	if os.IsNotExist(err) {
		f.st = replState{Primary: f.cfg.Primary}
		return nil
	}
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	var st replState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("replica: %s: %w", f.statePath(), err)
	}
	if st.Primary != f.cfg.Primary {
		// Following someone new: stream positions are meaningless, but the
		// standby sessions stay — the new stream reconciles them (records
		// below a session's step count skip; gaps force a snapshot reset).
		st = replState{Primary: f.cfg.Primary}
	}
	f.st = st
	return nil
}

// saveState persists the stream position atomically. Losing a position is
// harmless (re-applying is idempotent), so fsync of the tiny file is not
// load-bearing — the rename keeps it from ever being half-written.
func (f *Follower) saveState() {
	f.mu.Lock()
	data, _ := json.MarshalIndent(&f.st, "", "  ")
	f.mu.Unlock()
	tmp := f.statePath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		os.Rename(tmp, f.statePath())
	}
}

// Start learns the primary's shard count and launches one tail goroutine
// per primary shard. It retries the initial topology fetch until ctx is
// done — a follower may legitimately boot before its primary.
func (f *Follower) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		shards, err := f.discoverShards()
		if err != nil {
			return // stopped before the primary ever answered
		}
		f.mu.Lock()
		if f.st.Shards != shards {
			f.st.Shards = shards
			f.st.Pos = make([]shardPos, shards)
		} else if len(f.st.Pos) != shards {
			f.st.Pos = make([]shardPos, shards)
		}
		f.mu.Unlock()
		f.saveState()
		f.logf("replica: following %s (%d shards)", f.cfg.Primary, shards)
		for i := 0; i < shards; i++ {
			f.wg.Add(1)
			go f.tail(i, session.NewReplDecoder())
		}
	}()
}

// discoverShards polls GET /admin/wal/state until the primary answers.
func (f *Follower) discoverShards() (int, error) {
	backoff := 100 * time.Millisecond
	for {
		var out struct {
			Shards []session.ReplShardState `json:"shards"`
		}
		err := f.getJSON(f.cfg.Primary+"/admin/wal/state", &out)
		if err == nil && len(out.Shards) > 0 {
			return len(out.Shards), nil
		}
		if err != nil {
			f.logf("replica: wal/state: %v", err)
		}
		select {
		case <-f.ctx.Done():
			return 0, f.ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// tail is one primary shard's apply loop: long-poll, apply, ack, persist.
// dec is the shard stream's intern-table decoder; its table length rides on
// every poll (the itab handshake), so the primary's stream encoder and this
// decoder re-align automatically after any divergence.
func (f *Follower) tail(shard int, dec *session.ReplDecoder) {
	defer f.wg.Done()
	backoff := 100 * time.Millisecond
	for {
		if f.ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		from := f.st.Pos[shard].Applied + 1
		acked := f.st.Pos[shard].Applied
		f.mu.Unlock()
		batch, err := f.fetch(shard, from, acked, dec.TableLen())
		if err != nil {
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if err := f.applyBatch(shard, batch, dec); err != nil {
			var gap *session.ReplGapError
			if isGap(err, &gap) {
				// Out-of-order stream (e.g. the primary was rebuilt): restart
				// this shard from LSN 1 — re-served records skip idempotently,
				// and a compacted prefix arrives as a Reset batch.
				f.logf("replica: shard %d: %v — rewinding", shard, gap)
				f.mu.Lock()
				f.st.Pos[shard].Applied = 0
				f.mu.Unlock()
				f.saveState()
				continue
			}
			f.logf("replica: shard %d apply: %v", shard, err)
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		f.saveState()
	}
}

func (f *Follower) fetch(shard int, from, acked int64, itab int) (*session.WALBatch, error) {
	u := fmt.Sprintf("%s/admin/wal/stream?shard=%d&from=%d&acked=%d&wait=%s&itab=%d",
		f.cfg.Primary, shard, from, acked, url.QueryEscape(f.cfg.Poll.String()), itab)
	var b session.WALBatch
	if err := f.getJSON(u, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// applyBatch feeds one stream batch through the standby engine and books
// how far it got.
func (f *Follower) applyBatch(shard int, b *session.WALBatch, dec *session.ReplDecoder) error {
	if !b.Reset && b.ITab != dec.TableLen() {
		// The primary's stream encoder and this decoder disagree (competing
		// follower, primary restart). Skip the batch unapplied and re-poll:
		// our reset table length tells the primary to restart its stream,
		// and the next batch arrives decodable from a clean table.
		f.logf("replica: shard %d stream table mismatch (batch %d, have %d) — resetting", shard, b.ITab, dec.TableLen())
		dec.Reset()
		return nil
	}
	applied, err := f.eng.ApplyReplicated(dec, b)
	f.mu.Lock()
	if applied > 0 {
		f.st.Pos[shard].Applied = applied
	}
	if err == nil {
		f.st.Pos[shard].Committed = b.Committed
	}
	f.mu.Unlock()
	if err == nil && b.Reset {
		f.logf("replica: shard %d reset to base %d (%d sessions)", shard, b.Base, len(b.Snapshot))
	}
	return err
}

func isGap(err error, gap **session.ReplGapError) bool {
	for err != nil {
		if g, ok := err.(*session.ReplGapError); ok {
			*gap = g
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Lag returns the follower's total replication lag in records (committed
// minus applied, summed over primary shards, as of the last stream
// contact), plus the per-shard breakdown.
func (f *Follower) Lag() (int64, []shardPos) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var lag int64
	pos := make([]shardPos, len(f.st.Pos))
	copy(pos, f.st.Pos)
	for _, p := range pos {
		if d := p.Committed - p.Applied; d > 0 {
			lag += d
		}
	}
	return lag, pos
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Stop halts tailing and shuts the standby engine down (final snapshot).
func (f *Follower) Stop() error {
	f.cancel()
	f.wg.Wait()
	if f.ownsClient {
		f.client.Close()
	}
	return f.eng.Shutdown()
}

func (f *Follower) getJSON(u string, v any) error {
	return f.client.GetJSON(f.ctx, u, v)
}
