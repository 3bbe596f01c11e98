package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
	// Shards is the number of shards sessions are hashed across, each one
	// lock over its sessions and store. Defaults to GOMAXPROCS. Changing the shard count of an
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
	// SnapshotEvery compacts a shard's WAL into a snapshot after this many
	// applied steps (default 4096; negative disables snapshots).
	SnapshotEvery int
	// MailboxDepth bounds how many callers may wait for one shard's lock
	// (default 1024); the caller holding it does not count. Data-plane
	// requests (Open, Input, InputBatch, Install) arriving while that many
	// wait are rejected with OverloadedError instead of queueing without
	// bound — the engine's backpressure signal, surfaced as HTTP 429.
	// Control-plane requests always wait.
	MailboxDepth int
	// SessionRate caps each session's step rate in steps per second via a
	// per-session token bucket (0: no limit, the default). Steps beyond the
	// budget are rejected with RateLimitedError (HTTP 429 + Retry-After)
	// before anything is logged.
	SessionRate float64
	// SessionBurst is the bucket capacity: how many steps a fresh or idle
	// session may issue back-to-back (default max(1, ⌈SessionRate⌉)).
	SessionBurst int
	// Codec is inert: the engine writes binary records whatever it holds
	// and reads JSON-era records by per-record auto-detection. CodecBinary,
	// its one value, is kept only for callers that still name it.
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
// are safe for concurrent use by any number of goroutines. A request runs on
// its caller's goroutine while the caller holds its shard's lock, so the
// operations on one session apply one at a time, in the order their callers
// take that lock, and operations on different shards never contend.
type Engine struct {
	cfg    Config
	shards []*shard
	m      *metricsSet
	wg     sync.WaitGroup // the FsyncInterval flushers
}

// errShutDown answers every request after Shutdown.
var errShutDown = errors.New("engine is shut down")

// shard owns a disjoint set of sessions and their store. Every request runs
// on its caller's goroutine while the caller holds mu (see run), so the
// fields below mu have one writer at a time and no other lock guards them.
type shard struct {
	idx int
	cfg *Config
	m   *metricsSet

	// waiting counts the callers blocked on mu; the holder is not one of
	// them. It bounds data-plane admission (MailboxDepth) and tells a caller
	// about to release mu with records pending whether another caller will
	// take the lock after it (see settle).
	waiting atomic.Int64

	mu        sync.Mutex
	closed    bool // set by Shutdown: later requests fail
	sessions  map[string]*Session
	store     *storage.Store // nil in memory-only mode
	sinceSnap int
	broken    error // set on a WAL write failure; fail-stop for mutations

	group    *commitGroup // the pending group commit (nil when no record awaits one; see settle)
	segGauge int          // last value pushed to the walSegments metric

	// enc is the WAL record encoder. Its intern table is
	// scoped to one segment (encSeg): AlignAppend surfaces rotations before
	// each encode, and a segment change resets the table, so every segment
	// is self-describing from its first record — which is what lets
	// recovery and replication scans start at any segment boundary with a
	// fresh decoder.
	enc    *codec.Encoder
	encSeg int

	// stop ends the FsyncInterval flusher (nil under the other policies).
	stop chan struct{}

	// Byte meters for the durability surfaces, monotonic over the process
	// (walBytes in metricsSet resets on snapshot; these never do). Written
	// under mu, read by Stats and the spocus_storage expvar.
	walBytesTotal  atomic.Int64
	snapBytesTotal atomic.Int64
	shipBytesTotal atomic.Int64
	internEntries  atomic.Int64

	// acked is the highest LSN a replication follower has confirmed
	// applying for this shard's WAL stream. Written by HTTP goroutines
	// (AckWAL), read by Stats — atomic, not under mu.
	acked atomic.Int64
	// ackWake carries a token whenever acked advances, waking a leader
	// blocked in holdForReplica (semi-sync). Buffered at 1: a stale token
	// costs one spurious re-check of acked, never a missed wake.
	ackWake chan struct{}
}

// NewEngine creates an engine, replaying any existing snapshot and WAL
// under cfg.Dir so previously-acknowledged sessions and logs are live
// again before the first request is accepted.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, m: &metricsSet{start: time.Now()}}
	start := time.Now()
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			idx:      i,
			cfg:      &e.cfg,
			m:        e.m,
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
		if sh.store != nil && cfg.Fsync == FsyncInterval {
			sh.stop = make(chan struct{})
			e.wg.Add(1)
			go func(sh *shard) {
				defer e.wg.Done()
				sh.flushEvery(cfg.FsyncInterval)
			}(sh)
		}
	}
	engines.Add(e)
	return e, nil
}

// recover opens the shard's store under dir, streams its snapshot, and
// replays its WAL segments on top. Replay is idempotent: records already
// covered by the snapshot are skipped, so a crash between "snapshot
// durable" and "segments retired" is harmless.
func (sh *shard) recover(dir string) error {
	st, err := storage.Open(dir, storage.Options{
		Fsync:         sh.cfg.Fsync,
		FsyncInterval: sh.cfg.FsyncInterval,
		SegmentBytes:  sh.cfg.SegmentBytes,
	})
	if err != nil {
		return err
	}
	// Both decode paths auto-detect the format per record, so recovery reads
	// JSON-era files, binary files, and segments holding a mix identically.
	snap, walDec := newSnapReader(), codec.NewDecoder()
	n, err := st.Recover(
		func(payload []byte) error {
			_, s, err := snap.next(payload)
			if s != nil {
				sh.sessions[s.id] = s
			}
			return err
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

// groupCap caps how many callers with appended records one group commit
// covers (one shared fsync under FsyncAlways): the caller that fills a group
// commits it whoever else is waiting.
const groupCap = 256

// commitGroup is one group commit: the callers whose records it covers
// wait for done and then read err.
type commitGroup struct {
	n    int           // callers in the group
	done chan struct{} // closed once the commit has returned
	err  error         // the commit's failure, set before done is closed
}

// run executes do on the calling goroutine while it holds the shard's lock
// — the one execution path, for reads and writes, memory and durable shards
// alike — and returns do's result once it may be acknowledged: a request
// that appended to the WAL returns only after the group commit covering its
// record has returned, and fails with that commit. wait selects the control
// plane (Log, Close, List, Snapshot, ExportState, a standby's apply), which
// queues behind however many callers are ahead of it; the data plane (Open,
// Input, InputBatch, Install) is rejected with OverloadedError while
// MailboxDepth callers already wait, which bounds both memory and latency
// under overload.
func (sh *shard) run(wait bool, do func(*shard) (any, error)) (any, error) {
	v, g, err := sh.runLocked(wait, do)
	if g != nil {
		<-g.done
		if g.err != nil {
			return nil, g.err
		}
	}
	return v, err
}

// runLocked is the part of run that holds the lock. Besides do's result it
// returns the group commit covering what do appended (nil when it appended
// nothing), for run to wait on once the lock is released.
func (sh *shard) runLocked(wait bool, do func(*shard) (any, error)) (any, *commitGroup, error) {
	if !sh.lock(wait) {
		sh.m.rejected.Add(1)
		return nil, nil, &OverloadedError{Shard: sh.idx}
	}
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, nil, errShutDown
	}
	var before int64
	if sh.store != nil {
		before = sh.store.Appends()
	}
	v, err := do(sh)
	var g *commitGroup
	if sh.store != nil && sh.store.Appends() > before {
		if sh.group == nil {
			sh.group = &commitGroup{done: make(chan struct{})}
		}
		g = sh.group
		g.n++
	}
	sh.settle()
	return v, g, err
}

// lock takes mu, counting the caller in waiting while it blocks. A
// data-plane caller (wait false) is turned away instead when MailboxDepth
// callers are already waiting. It is never counted then, so waiting only
// ever counts callers that will take the lock.
func (sh *shard) lock(wait bool) bool {
	if sh.mu.TryLock() {
		return true
	}
	for {
		n := sh.waiting.Load()
		if !wait && n >= int64(sh.cfg.MailboxDepth) {
			return false
		}
		if sh.waiting.CompareAndSwap(n, n+1) {
			break
		}
	}
	sh.mu.Lock()
	sh.waiting.Add(-1)
	return true
}

// settle is the group-commit protocol, run by every caller just before it
// releases mu: the last caller out of the lock commits the pending group,
// unless it is full, when the caller that filled it commits it at once. A
// commit releases every caller waiting for the group. So mu is never
// released with records pending unless a caller is waiting for it, and an
// acknowledgement is released only after the commit covering its record
// returned — an acked step is a durable step.
func (sh *shard) settle() {
	if g := sh.group; g != nil && (g.n >= groupCap || sh.waiting.Load() == 0) {
		sh.groupCommit()
	}
}

// groupCommit syncs the pending group's appends per policy and releases its
// callers. A failed sync follows the fail-stop discipline: every caller in
// the group is told of the failure (its record may not be durable) and the
// shard refuses further mutations.
func (sh *shard) groupCommit() {
	g := sh.group
	sh.group = nil
	if sh.broken == nil {
		synced, err := sh.store.Commit()
		if err != nil {
			sh.broken = err
			g.err = fmt.Errorf("shard %d wal sync failed: %w", sh.idx, err)
		} else if synced {
			sh.m.walSyncs.Add(1)
		}
		sh.refreshSegGauge()
		if sh.cfg.ReplSyncWait > 0 && sh.broken == nil {
			sh.holdForReplica()
		}
	}
	close(g.done)
}

// flushEvery is the FsyncInterval flusher: every d it takes the shard's lock
// like any caller and syncs the WAL, unless a group commit is pending — it
// is about to write the WAL anyway.
func (sh *shard) flushEvery(d time.Duration) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-sh.stop:
			return
		case <-t.C:
		}
		sh.run(true, func(sh *shard) (any, error) {
			if sh.broken == nil && sh.group == nil {
				if err := sh.store.Sync(); err != nil {
					sh.broken = err
				}
			}
			return nil, nil
		})
	}
}

// holdForReplica is the semi-sync gate: the leader blocks the batch's
// acknowledgements, still holding mu, until the follower has acked every LSN
// this commit published, or ReplSyncWait elapses (then the batch degrades
// to async and repl_sync_timeouts ticks). It engages only once a follower
// has acked at least one LSN, so a primary nobody follows pays nothing.
// Deadlock-free by construction: the ack path (StreamWAL long-poll →
// follower apply → next fetch's acked= → AckWAL) touches only the store's
// replication view and the shard's atomics, never mu.
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

// onSession runs do on session id under its shard's lock, or fails with
// NotFoundError.
func (e *Engine) onSession(id string, do func(*shard, *Session) (any, error)) (any, error) {
	return e.shardFor(id).run(true, func(sh *shard) (any, error) {
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
	v, err := e.shardFor(s.id).run(false, func(sh *shard) (any, error) {
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
	return e.step(id, key, in)
}

// step is the single-step entry behind InputKey and NetInputKey: admit the
// step, propose its record, answer with what applying it returned. input is
// a machine's relation.Instance or a network's compose.StepInputs.
func (e *Engine) step(id, key string, input any) (*StepResult, error) {
	start := time.Now()
	v, err := e.shardFor(id).run(false, func(sh *shard) (any, error) {
		s, dup, err := sh.admit(id, key, input)
		if err != nil || dup != nil {
			return dup, err
		}
		var res [1]*StepResult
		rec := &walRecord{T: recStep, SID: id, Seq: s.steps + 1, Key: key}
		rec.Input, _ = input.(relation.Instance)
		rec.NetIn, _ = input.(compose.StepInputs)
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
		lr := s.logResult()
		return &CloseResult{ID: id, Steps: s.steps, Valid: s.valid(), Log: lr.Log, Joint: lr.Joint}, nil
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
		v, err := sh.run(true, func(sh *shard) (any, error) {
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
		if _, err := sh.run(true, func(sh *shard) (any, error) {
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

// Shutdown stops the engine cleanly: each shard commits what is pending,
// takes a final snapshot (when durable), and flushes and closes its WAL.
// The engine rejects requests afterwards. Shutdown is idempotent: a second
// call finds every shard closed and returns nil.
func (e *Engine) Shutdown() error {
	var first error
	for _, sh := range e.shards {
		if err := sh.shutdown(); err != nil && first == nil {
			first = err
		}
	}
	e.wg.Wait()
	engines.Remove(e)
	return first
}

// shutdown closes one shard under its lock. A failed final snapshot is
// returned, but the store is closed all the same: its WAL still holds every
// acknowledged record.
func (sh *shard) shutdown() error {
	sh.lock(true)
	defer sh.mu.Unlock()
	if sh.closed {
		return nil
	}
	sh.closed = true
	if sh.stop != nil {
		close(sh.stop)
	}
	if sh.store == nil {
		return nil
	}
	if sh.group != nil {
		sh.groupCommit()
	}
	err := sh.maybeSnapshot(true)
	sh.store.Close()
	return err
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

// OverloadedError reports a data-plane request rejected because
// MailboxDepth callers were already waiting for its shard. The HTTP layer
// maps it to 429 Too Many Requests; clients should back off and retry.
type OverloadedError struct{ Shard int }

func (err *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: shard %d has too many callers waiting", err.Shard)
}
