package session

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Config tunes an Engine.
type Config struct {
	// Dir is the durability directory holding per-shard WAL and snapshot
	// files. Empty means in-memory only: nothing survives the process.
	Dir string
	// Shards is the number of goroutine-owned shards sessions are hashed
	// across. Defaults to GOMAXPROCS. Changing the shard count of an
	// existing Dir is safe only through a clean Shutdown (which snapshots):
	// replay routes each persisted session by its own ID hash.
	Shards int
	// Fsync selects the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates a shard's active WAL segment once it exceeds
	// this size (default 64 MiB). Sealed segments are never written again.
	SegmentBytes int64
	// GroupCommitBatch caps how many requests a shard executes before it
	// commits (one shared fsync under FsyncAlways) and releases their
	// acknowledgements (default 256). 1 disables batching: every request
	// pays its own fsync, the pre-group-commit behavior.
	GroupCommitBatch int
	// GroupCommitWindow, when positive under FsyncAlways, lets a shard
	// with a dirty WAL wait up to this long for follower requests to join
	// the pending fsync (default 0: commit as soon as the mailbox is
	// drained). The window only ever delays acknowledgements, never
	// weakens them — acks are still released only after the shared fsync
	// returns.
	GroupCommitWindow time.Duration
	// SnapshotEvery compacts a shard's WAL into a snapshot after this many
	// applied steps (default 4096; negative disables snapshots).
	SnapshotEvery int
	// MailboxDepth bounds each shard's request mailbox (default 1024).
	// Open and Input requests arriving while the mailbox is full are
	// rejected with OverloadedError instead of queueing without bound —
	// the engine's backpressure signal, surfaced as HTTP 429.
	MailboxDepth int
	// SessionRate caps each session's step rate in steps per second via a
	// per-session token bucket (0: no limit, the default). Steps beyond the
	// budget are rejected with RateLimitedError (HTTP 429 + Retry-After)
	// before anything is logged.
	SessionRate float64
	// SessionBurst is the bucket capacity: how many steps a fresh or idle
	// session may issue back-to-back (default max(1, ⌈SessionRate⌉)).
	SessionBurst int
	// Codec selects the encoding of the WAL and snapshot records this
	// engine writes (default CodecBinary, the compact interned format).
	// Reads always auto-detect the format per record, so switching codecs
	// over an existing Dir is safe in both directions: old records replay
	// unchanged, new records land in the configured encoding.
	Codec Codec
	// ReplSyncWait, when positive, upgrades replication to semi-synchronous:
	// each group commit's acknowledgements are additionally held until the
	// shard's follower has acked the batch's last LSN, or the wait elapses
	// (then the shard degrades to async — repl_sync_timeouts ticks and the
	// hold stays off until the follower acks again). The hold engages only
	// once a follower has acked at least one LSN, so an engine nobody
	// follows never waits. Under
	// semi-sync an acked step is durable on BOTH the primary and its
	// follower — which is what makes promotion lose nothing the client was
	// told succeeded.
	ReplSyncWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.GroupCommitBatch <= 0 {
		c.GroupCommitBatch = 256
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 4096
	} else if c.SnapshotEvery < 0 {
		c.SnapshotEvery = 0
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 1024
	}
	if c.SessionBurst <= 0 {
		c.SessionBurst = int(math.Ceil(c.SessionRate))
		if c.SessionBurst < 1 {
			c.SessionBurst = 1
		}
	}
	return c
}

// Engine hosts many concurrent sessions, sharded by session ID. All methods
// are safe for concurrent use by any number of goroutines; operations on
// the same session are applied in the order they arrive at its shard (FIFO
// per session), and operations on different shards never contend.
type Engine struct {
	cfg    Config
	shards []*shard
	m      *metricsSet

	mu     sync.RWMutex // guards closed against in-flight senders
	closed bool
	wg     sync.WaitGroup
}

// request is one unit of work executed inside a shard's goroutine.
type request struct {
	do    func(*shard) (any, error)
	reply chan reply
}

type reply struct {
	v   any
	err error
}

// shard owns a disjoint set of sessions and their store. Only its
// goroutine touches these fields after startup, so no locks appear
// anywhere below.
type shard struct {
	idx       int
	cfg       *Config
	m         *metricsSet
	ch        chan request
	sessions  map[string]*Session
	store     *storage.Store // nil in memory-only mode
	sinceSnap int
	broken    error // set on a WAL write failure; fail-stop for mutations

	// pending holds requests executed but not yet acknowledged: their
	// replies are released together, after the batch's shared Commit.
	pending  []pendingReply
	segGauge int // last value pushed to the walSegments metric

	// enc is the WAL record encoder under CodecBinary. Its intern table is
	// scoped to one segment (encSeg): AlignAppend surfaces rotations before
	// each encode, and a segment change resets the table, so every segment
	// is self-describing from its first record — which is what lets
	// recovery and replication scans start at any segment boundary with a
	// fresh decoder.
	enc    *codec.Encoder
	encSeg int

	// streamEnc is the replication wire's encoder: StreamWAL transcodes
	// segment-scoped records into this stream for binary-wire followers.
	// Guarded by streamMu — stream requests arrive on HTTP goroutines, not
	// the shard loop.
	streamMu  sync.Mutex
	streamEnc *codec.Encoder

	// Byte meters for the durability surfaces, monotonic over the process
	// (walBytes in metricsSet resets on snapshot; these never do). Written
	// by the shard goroutine, read by Stats and the spocus_storage expvar.
	walBytesTotal  atomic.Int64
	snapBytesTotal atomic.Int64
	shipBytesTotal atomic.Int64
	internEntries  atomic.Int64

	// acked is the highest LSN a replication follower has confirmed
	// applying for this shard's WAL stream. Written by HTTP goroutines
	// (AckWAL), read by Stats — atomic, not shard-owned.
	acked atomic.Int64
	// ackWake carries a token whenever acked advances, waking a shard
	// blocked in holdForReplica (semi-sync). Buffered at 1: a stale token
	// costs one spurious re-check of acked, never a missed wake.
	ackWake chan struct{}
}

// pendingReply is one executed request awaiting the group commit.
type pendingReply struct {
	ch  chan reply
	v   any
	err error
}

// NewEngine creates an engine, replaying any existing snapshot and WAL
// under cfg.Dir so previously-acknowledged sessions and logs are live
// again before the first request is accepted.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, m: &metricsSet{start: time.Now()}}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			idx:      i,
			cfg:      &e.cfg,
			m:        e.m,
			ch:       make(chan request, cfg.MailboxDepth),
			sessions: make(map[string]*Session),
			ackWake:  make(chan struct{}, 1),
			enc:      codec.NewEncoder(),
			encSeg:   -1,
		}
		if cfg.Dir != "" {
			if err := sh.recover(filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		e.shards = append(e.shards, sh)
	}
	e.m.replayNanos.Store(int64(time.Since(start)))
	for _, sh := range e.shards {
		e.m.sessionsOpen.Add(int64(len(sh.sessions)))
		e.wg.Add(1)
		go func(sh *shard) {
			defer e.wg.Done()
			sh.loop()
		}(sh)
	}
	registerEngine(e)
	return e, nil
}

// recover opens the shard's store under dir, streams its snapshot, and
// replays its WAL segments on top. Replay is idempotent: records already
// covered by the snapshot are skipped, so a crash between "snapshot
// durable" and "segments retired" is harmless.
func (sh *shard) recover(dir string) error {
	st, err := storage.Open(dir, storage.Options{
		Fsync:            sh.cfg.Fsync,
		FsyncInterval:    sh.cfg.FsyncInterval,
		SegmentBytes:     sh.cfg.SegmentBytes,
		NewStreamDecoder: newWALStreamDecoder,
	})
	if err != nil {
		return err
	}
	// Both decode paths auto-detect the format per record, so recovery reads
	// JSON-era files, binary files, and segments holding a mix (a server
	// restarted under a different -wal-codec keeps appending to fresh
	// segments, but replication can interleave formats) identically.
	snapDec, walDec := codec.NewDecoder(), codec.NewDecoder()
	first := true
	n, err := st.Recover(
		func(payload []byte) error {
			h, img, err := decodeSnapPayload(snapDec, payload, first)
			if err != nil {
				return err
			}
			if first {
				first = false
				if h == nil {
					return fmt.Errorf("snapshot stream does not start with a header")
				}
				if h.Version != snapVersion {
					return fmt.Errorf("snapshot version %d, want %d", h.Version, snapVersion)
				}
				return nil
			}
			if img == nil {
				return fmt.Errorf("snapshot stream holds a second header")
			}
			s, err := img.restore()
			if err != nil {
				return err
			}
			sh.sessions[s.id] = s
			return nil
		},
		func(payload []byte) error {
			rec, err := decodeWALPayload(walDec, payload)
			if err != nil {
				return err
			}
			return sh.commit(rec, fromWAL, nil, nil)
		})
	if err != nil {
		return err
	}
	sh.m.replayRecords.Add(int64(n))
	sh.store = st
	sh.segGauge = st.Segments()
	sh.m.walSegments.Add(int64(sh.segGauge))
	return nil
}

// loop is the shard's actor loop: it owns the sessions map and store until
// the channel closes, then flushes and closes the store. Each received
// request seeds a batch — see batch for the group-commit protocol.
func (sh *shard) loop() {
	var flush <-chan time.Time
	if sh.store != nil && sh.cfg.Fsync == FsyncInterval {
		t := time.NewTicker(sh.cfg.FsyncInterval)
		defer t.Stop()
		flush = t.C
	}
	for {
		select {
		case req, ok := <-sh.ch:
			if !ok || !sh.batch(req) {
				sh.closeStore()
				return
			}
		case <-flush:
			if sh.broken == nil {
				if err := sh.store.Sync(); err != nil {
					sh.broken = err
				}
			}
		}
	}
}

func (sh *shard) closeStore() {
	if sh.store != nil {
		sh.store.Close()
	}
}

// batch is the group-commit heart of the shard: it executes first, then
// keeps executing whatever is already queued in the mailbox (up to
// GroupCommitBatch requests), and only then commits — so every WAL append
// in the batch shares one fsync under FsyncAlways. Requests that did not
// append (reads, rejections) are acknowledged immediately; requests that
// did are acknowledged only after the shared fsync returns, preserving
// the crash contract exactly: an acked step is a durable step.
//
// With GroupCommitWindow > 0 a dirty shard waits up to the window for
// followers before syncing, trading bounded latency for fewer fsyncs.
// Returns false when the mailbox closed mid-drain (engine shutdown).
func (sh *shard) batch(first request) (open bool) {
	open = true
	var timer *time.Timer
	var deadline <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		sh.commitPending()
	}()
	sh.exec(first)
	for len(sh.pending) < sh.cfg.GroupCommitBatch {
		select {
		case req, ok := <-sh.ch:
			if !ok {
				return false
			}
			sh.exec(req)
			continue
		default:
		}
		// Mailbox momentarily empty. Arm the window once per batch, and
		// only when there is something worth waiting to amortize.
		if deadline == nil && sh.cfg.GroupCommitWindow > 0 && sh.cfg.Fsync == FsyncAlways &&
			sh.store != nil && sh.store.Dirty() && sh.broken == nil {
			timer = time.NewTimer(sh.cfg.GroupCommitWindow)
			deadline = timer.C
		}
		if deadline == nil {
			return true
		}
		select {
		case req, ok := <-sh.ch:
			if !ok {
				return false
			}
			sh.exec(req)
		case <-deadline:
			return true
		}
	}
	return true
}

// exec runs one request in the shard. If it appended to the WAL its reply
// is deferred to the batch commit; otherwise it is released immediately.
func (sh *shard) exec(req request) {
	var before int64
	if sh.store != nil {
		before = sh.store.Appends()
	}
	v, err := req.do(sh)
	if sh.store != nil && sh.store.Appends() > before {
		sh.pending = append(sh.pending, pendingReply{req.reply, v, err})
		return
	}
	req.reply <- reply{v, err}
}

// commitPending syncs the batch's appends per policy and releases the
// deferred acknowledgements. A failed sync follows the fail-stop
// discipline: every pending request learns of the failure (its records
// may not be durable) and the shard refuses further mutations.
func (sh *shard) commitPending() {
	if len(sh.pending) == 0 {
		return
	}
	if sh.store != nil && sh.broken == nil {
		synced, err := sh.store.Commit()
		if err != nil {
			sh.broken = err
			werr := fmt.Errorf("shard %d wal sync failed: %w", sh.idx, err)
			for i := range sh.pending {
				sh.pending[i].v, sh.pending[i].err = nil, werr
			}
		} else if synced {
			sh.m.walSyncs.Add(1)
		}
		sh.refreshSegGauge()
		if sh.cfg.ReplSyncWait > 0 && sh.broken == nil {
			sh.holdForReplica()
		}
	}
	for i := range sh.pending {
		sh.pending[i].ch <- reply{sh.pending[i].v, sh.pending[i].err}
	}
	sh.pending = sh.pending[:0]
}

// holdForReplica is the semi-sync gate: it blocks the batch's
// acknowledgements until the follower has acked every LSN this commit
// published, or ReplSyncWait elapses (then the batch degrades to async and
// repl_sync_timeouts ticks). It engages only once a follower has acked at
// least one LSN, so a primary nobody follows pays nothing. Deadlock-free by
// construction: the ack path (StreamWAL long-poll → follower apply → next
// fetch's acked= → AckWAL) touches only the store's replication view and
// the shard's atomic, never the shard goroutine blocked here.
func (sh *shard) holdForReplica() {
	if sh.acked.Load() == 0 {
		return
	}
	target := sh.store.ReplState().Committed
	if sh.acked.Load() >= target {
		return
	}
	timer := time.NewTimer(sh.cfg.ReplSyncWait)
	defer timer.Stop()
	for sh.acked.Load() < target {
		select {
		case <-sh.ackWake:
		case <-timer.C:
			// Degrade: the follower stopped acking (dead or partitioned).
			// Resetting the gauge disengages the hold — only this one batch
			// pays the full wait — until the follower acks again, which
			// re-engages semi-sync automatically.
			sh.acked.Store(0)
			sh.m.replSyncTimeouts.Add(1)
			return
		}
	}
}

func (sh *shard) refreshSegGauge() {
	if n := sh.store.Segments(); n != sh.segGauge {
		sh.m.walSegments.Add(int64(n - sh.segGauge))
		sh.segGauge = n
	}
}

// ShardOf computes the shard index a session ID hashes to in an engine
// with the given shard count. Exported because a replication follower
// needs to reproduce the PRIMARY's placement: the primary shard of a
// session decides which WAL stream its records arrive on.
func ShardOf(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// shardFor routes a session ID to its owning shard.
func (e *Engine) shardFor(id string) *shard {
	return e.shards[ShardOf(id, len(e.shards))]
}

// post runs do inside sh's goroutine and waits for the result. A full
// mailbox blocks the caller when wait is set and rejects the request with
// OverloadedError otherwise.
func (e *Engine) post(sh *shard, wait bool, do func(*shard) (any, error)) (any, error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, fmt.Errorf("engine is shut down")
	}
	req := request{do: do, reply: make(chan reply, 1)}
	if wait {
		sh.ch <- req
	} else {
		select {
		case sh.ch <- req:
		default:
			e.mu.RUnlock()
			e.m.rejected.Add(1)
			return nil, &OverloadedError{Shard: sh.idx}
		}
	}
	e.mu.RUnlock()
	r := <-req.reply
	return r.v, r.err
}

// send is post for control-plane operations (Log, Close, List, Snapshot,
// ExportState, a standby's apply): they are rare enough that queueing is
// preferable to spurious rejection.
func (e *Engine) send(sh *shard, do func(*shard) (any, error)) (any, error) {
	return e.post(sh, true, do)
}

// trySend is post for the high-rate data plane (Open, Input, InputBatch,
// Install): shedding at a full mailbox bounds both memory and latency under
// overload.
func (e *Engine) trySend(sh *shard, do func(*shard) (any, error)) (any, error) {
	return e.post(sh, false, do)
}

// onSession runs do on session id inside its shard's goroutine, or fails
// with NotFoundError.
func (e *Engine) onSession(id string, do func(*shard, *Session) (any, error)) (any, error) {
	return e.send(e.shardFor(id), func(sh *shard) (any, error) {
		s, ok := sh.sessions[id]
		if !ok {
			return nil, &NotFoundError{ID: id}
		}
		return do(sh, s)
	})
}

// NewID returns a fresh 128-bit random session ID.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session: id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Open creates a session and durably records its creation. If req.ID is
// empty a random ID is assigned.
func (e *Engine) Open(req *OpenRequest) (*Info, error) {
	id := req.ID
	if id == "" {
		id = NewID()
	}
	s, err := newSession(id, req)
	if err != nil {
		return nil, &BadInputError{Err: err}
	}
	return e.create(s, s.openRecord())
}

// create brings the already-built session s into being under rec, its open
// or install record, unless the engine already serves the ID.
func (e *Engine) create(s *Session, rec *walRecord) (*Info, error) {
	v, err := e.trySend(e.shardFor(s.id), func(sh *shard) (any, error) {
		if _, ok := sh.sessions[s.id]; ok {
			return nil, &ConflictError{ID: s.id}
		}
		if err := sh.commit(rec, fromAPI, s, nil); err != nil {
			return nil, err
		}
		return s.info(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Info), nil
}

// Input feeds one input-relation set to the session and returns the step's
// outputs and log delta, exactly the exchange of Figure 1. The step is
// durable (per the fsync policy) before it is acknowledged.
func (e *Engine) Input(id string, in relation.Instance) (*StepResult, error) {
	return e.InputKey(id, "", in)
}

// InputKey is Input with a client idempotency key: when key is non-empty
// and the session has already applied a step under it, the input is NOT
// applied again — the recorded step is answered back with Duplicate set.
// The (key → seq) table travels in the step's WAL record and in snapshot
// images, so dedupe holds across crash recovery, handoff, and follower
// promotion; that is what lets the router retry an ambiguous 502 without
// risking a double step.
func (e *Engine) InputKey(id, key string, in relation.Instance) (*StepResult, error) {
	return e.step(id, key, false, in, nil)
}

// step is the single-step entry behind InputKey and NetInputKey: admit the
// step, propose its record, answer with what applying it returned.
func (e *Engine) step(id, key string, net bool, in relation.Instance, ext compose.StepInputs) (*StepResult, error) {
	start := time.Now()
	v, err := e.trySend(e.shardFor(id), func(sh *shard) (any, error) {
		s, dup, err := sh.admit(id, key, net, in, ext)
		if err != nil || dup != nil {
			return dup, err
		}
		var res [1]*StepResult
		rec := &walRecord{T: recStep, SID: id, Seq: s.steps + 1, Input: in, NetIn: ext, Key: key}
		if err := sh.commit(rec, fromAPI, nil, res[:]); err != nil {
			return nil, err
		}
		return res[0], nil
	})
	if err != nil {
		return nil, err
	}
	e.m.stepLatency.Observe(int64(time.Since(start)))
	return v.(*StepResult), nil
}

// Log returns the session's full durable log.
func (e *Engine) Log(id string) (*LogResult, error) {
	v, err := e.onSession(id, func(_ *shard, s *Session) (any, error) { return s.logResult(), nil })
	if err != nil {
		return nil, err
	}
	return v.(*LogResult), nil
}

// Info returns the session's description.
func (e *Engine) Info(id string) (*Info, error) {
	v, err := e.onSession(id, func(_ *shard, s *Session) (any, error) { return s.info(), nil })
	if err != nil {
		return nil, err
	}
	return v.(*Info), nil
}

// CloseResult reports the final disposition of a closed session.
type CloseResult struct {
	ID    string `json:"id"`
	Steps int    `json:"steps"`
	// Valid is the run's final validity under the session's acceptance
	// mode; for accept-at-end this is the definitive answer.
	Valid bool              `json:"valid"`
	Log   relation.Sequence `json:"log"`
	Joint []JointLogEntry   `json:"joint,omitempty"` // network sessions
}

// Close ends the session, durably records the close, and returns the final
// log (the complete business exchange, per Figure 1).
func (e *Engine) Close(id string) (*CloseResult, error) {
	v, err := e.onSession(id, func(sh *shard, s *Session) (any, error) {
		if s.frozen {
			return nil, &FrozenError{ID: id}
		}
		if err := sh.commit(&walRecord{T: recClose, SID: id}, fromAPI, nil, nil); err != nil {
			return nil, err
		}
		res := &CloseResult{ID: id, Steps: s.steps, Valid: s.valid(), Log: s.logs}
		if s.net != nil {
			res.Joint = s.net.joint
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*CloseResult), nil
}

// List returns Info for every open session, sorted by ID.
func (e *Engine) List() ([]*Info, error) {
	var all []*Info
	for _, sh := range e.shards {
		v, err := e.send(sh, func(sh *shard) (any, error) {
			infos := make([]*Info, 0, len(sh.sessions))
			for _, s := range sh.sessions {
				infos = append(infos, s.info())
			}
			return infos, nil
		})
		if err != nil {
			return nil, err
		}
		all = append(all, v.([]*Info)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// Snapshot forces every shard to compact its WAL into a snapshot now.
func (e *Engine) Snapshot() error {
	for _, sh := range e.shards {
		if _, err := e.send(sh, func(sh *shard) (any, error) {
			return nil, sh.maybeSnapshot(true)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the engine's metrics snapshot, including replication lag
// computed from each shard's committed LSN against its follower's last
// ack. Shards never acked (no follower attached) contribute nothing, so
// an unreplicated engine reports zero lag rather than infinity.
func (e *Engine) Stats() Stats {
	st := e.m.stats()
	for _, sh := range e.shards {
		st.WALBytesTotal += sh.walBytesTotal.Load()
		st.SnapshotBytesTotal += sh.snapBytesTotal.Load()
		st.ShipBytesTotal += sh.shipBytesTotal.Load()
		st.CodecInternEntries += sh.internEntries.Load()
		if sh.store == nil {
			continue
		}
		acked := sh.acked.Load()
		if acked == 0 {
			continue
		}
		rs := sh.store.ReplState()
		st.ReplCommitted += rs.Committed
		st.ReplAcked += acked
		if lag := rs.Committed - acked; lag > 0 {
			st.ReplLag += lag
		}
	}
	return st
}

// Shards returns the number of shards (for reporting).
func (e *Engine) Shards() int { return len(e.shards) }

// Shutdown stops the engine cleanly: in-flight requests drain, each shard
// takes a final snapshot (when durable), and WAL files are flushed and
// closed. The engine rejects requests afterwards.
func (e *Engine) Shutdown() error {
	if e.cfg.Dir != "" {
		if err := e.Snapshot(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, sh := range e.shards {
		close(sh.ch)
	}
	e.mu.Unlock()
	e.wg.Wait()
	unregisterEngine(e)
	return nil
}

// NotFoundError reports an operation on a session that does not exist.
type NotFoundError struct{ ID string }

func (err *NotFoundError) Error() string { return fmt.Sprintf("no session %s", err.ID) }

// ConflictError reports an attempt to open a session under an ID that is
// already in use.
type ConflictError struct{ ID string }

func (err *ConflictError) Error() string { return fmt.Sprintf("session %s already exists", err.ID) }

// BadInputError reports a client-side input problem (unknown relation,
// wrong arity).
type BadInputError struct{ Err error }

func (err *BadInputError) Error() string { return err.Err.Error() }
func (err *BadInputError) Unwrap() error { return err.Err }

// OverloadedError reports a request rejected because its shard's mailbox
// was full. The HTTP layer maps it to 429 Too Many Requests; clients
// should back off and retry.
type OverloadedError struct{ Shard int }

func (err *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: shard %d mailbox full", err.Shard)
}
