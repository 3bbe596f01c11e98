package session

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metricsSet is one engine's counters. All fields are updated with atomics
// so shard goroutines never contend on a lock for bookkeeping.
type metricsSet struct {
	start            time.Time
	sessionsOpen     atomic.Int64
	sessionsOpened   atomic.Int64
	sessionsClosed   atomic.Int64
	stepsTotal       atomic.Int64
	walBytes         atomic.Int64
	walAppends       atomic.Int64
	walSyncs         atomic.Int64
	walSegments      atomic.Int64
	installs         atomic.Int64
	snapshots        atomic.Int64
	replayNanos      atomic.Int64
	replayRecords    atomic.Int64
	rejected         atomic.Int64
	rateLimited      atomic.Int64
	exports          atomic.Int64
	handoffs         atomic.Int64
	dedupedSteps     atomic.Int64
	replBatches      atomic.Int64
	replApplied      atomic.Int64
	replSyncTimeouts atomic.Int64
	stepLatency      obs.Hist // nanoseconds
}

// Stats is a point-in-time snapshot of an engine's metrics, also served at
// /debug/vars under the key "spocus".
type Stats struct {
	SessionsOpen     int64   `json:"sessions_open"`
	SessionsOpened   int64   `json:"sessions_opened_total"`
	SessionsClosed   int64   `json:"sessions_closed_total"`
	StepsTotal       int64   `json:"steps_total"`
	StepsPerSec      float64 `json:"steps_per_sec"` // over the engine's lifetime
	WALBytes         int64   `json:"wal_bytes"`
	WALAppends       int64   `json:"wal_appends_total"` // records appended
	WALSyncs         int64   `json:"wal_syncs_total"`   // batch fsyncs issued (group commit shares them)
	WALSegments      int64   `json:"wal_segments"`      // live segment files across shards
	InstallsTotal    int64   `json:"installs_total"`    // sessions installed from a shipped image (handoff, promotion)
	Snapshots        int64   `json:"snapshots_total"`
	ReplayMillis     float64 `json:"replay_ms"`
	ReplayRecords    int64   `json:"replay_records"`
	RejectedTotal    int64   `json:"rejected_total"`           // mailbox-full 429s
	RateLimited      int64   `json:"rate_limited_total"`       // per-session rate-limit 429s
	ExportsTotal     int64   `json:"exports_total"`            // handoff exports served
	HandoffsTotal    int64   `json:"handoffs_total"`           // sessions handed off (forgotten)
	DedupedSteps     int64   `json:"deduped_steps_total"`      // steps answered from the idempotency-key table
	ReplBatches      int64   `json:"repl_batches_total"`       // WAL stream batches served to followers
	ReplApplied      int64   `json:"repl_applied_total"`       // replicated records applied (follower side)
	ReplSyncTimeouts int64   `json:"repl_sync_timeouts_total"` // semi-sync holds that degraded to async
	// Replication lag, summed across shards that have an acking follower:
	// committed LSNs, acked LSNs, and their difference. Zero when no
	// follower has ever acked.
	ReplCommitted int64 `json:"repl_committed_lsn"`
	ReplAcked     int64 `json:"repl_acked_lsn"`
	ReplLag       int64 `json:"repl_lag_records"`
	// Durability-surface byte meters, summed across shards and monotonic
	// over the engine's life (wal_bytes resets at each snapshot; these
	// never do). Per-shard breakdowns live under the spocus_storage expvar.
	WALBytesTotal      int64   `json:"wal_bytes_total"`
	SnapshotBytesTotal int64   `json:"snapshot_bytes_total"`
	ShipBytesTotal     int64   `json:"ship_bytes_total"`
	CodecInternEntries int64   `json:"codec_intern_entries"`
	StepP50Micros      float64 `json:"step_latency_p50_us"`
	StepP90Micros      float64 `json:"step_latency_p90_us"`
	StepP99Micros      float64 `json:"step_latency_p99_us"`
	StepMaxMicros      float64 `json:"step_latency_max_us"`
}

func (m *metricsSet) stats() Stats {
	elapsed := time.Since(m.start).Seconds()
	steps := m.stepsTotal.Load()
	var rate float64
	if elapsed > 0 {
		rate = float64(steps) / elapsed
	}
	return Stats{
		SessionsOpen:     m.sessionsOpen.Load(),
		SessionsOpened:   m.sessionsOpened.Load(),
		SessionsClosed:   m.sessionsClosed.Load(),
		StepsTotal:       steps,
		StepsPerSec:      rate,
		WALBytes:         m.walBytes.Load(),
		WALAppends:       m.walAppends.Load(),
		WALSyncs:         m.walSyncs.Load(),
		WALSegments:      m.walSegments.Load(),
		InstallsTotal:    m.installs.Load(),
		Snapshots:        m.snapshots.Load(),
		ReplayMillis:     float64(m.replayNanos.Load()) / 1e6,
		ReplayRecords:    m.replayRecords.Load(),
		RejectedTotal:    m.rejected.Load(),
		RateLimited:      m.rateLimited.Load(),
		ExportsTotal:     m.exports.Load(),
		HandoffsTotal:    m.handoffs.Load(),
		DedupedSteps:     m.dedupedSteps.Load(),
		ReplBatches:      m.replBatches.Load(),
		ReplApplied:      m.replApplied.Load(),
		ReplSyncTimeouts: m.replSyncTimeouts.Load(),
		StepP50Micros:    float64(m.stepLatency.Quantile(0.50)) / 1e3,
		StepP90Micros:    float64(m.stepLatency.Quantile(0.90)) / 1e3,
		StepP99Micros:    float64(m.stepLatency.Quantile(0.99)) / 1e3,
		StepMaxMicros:    float64(m.stepLatency.Max()) / 1e3,
	}
}

// engines tracks live engines so the process-wide expvar export can
// aggregate across them (a server normally has exactly one).
var (
	enginesMu sync.Mutex
	engines   = make(map[*Engine]bool)
	expvarOne sync.Once
)

func registerEngine(e *Engine) {
	enginesMu.Lock()
	engines[e] = true
	enginesMu.Unlock()
	expvarOne.Do(func() {
		expvar.Publish("spocus", expvar.Func(func() any {
			enginesMu.Lock()
			defer enginesMu.Unlock()
			agg := make([]Stats, 0, len(engines))
			for e := range engines {
				agg = append(agg, e.Stats())
			}
			return agg
		}))
		expvar.Publish("spocus_storage", expvar.Func(func() any {
			enginesMu.Lock()
			defer enginesMu.Unlock()
			type shardStorage struct {
				Shard              int    `json:"shard"`
				Codec              string `json:"codec"`
				WALBytesTotal      int64  `json:"wal_bytes_total"`
				SnapshotBytesTotal int64  `json:"snapshot_bytes_total"`
				ShipBytesTotal     int64  `json:"ship_bytes_total"`
				CodecInternEntries int64  `json:"codec_intern_entries"`
			}
			var agg []shardStorage
			for e := range engines {
				for _, sh := range e.shards {
					agg = append(agg, shardStorage{
						Shard:              sh.idx,
						Codec:              e.cfg.Codec.String(),
						WALBytesTotal:      sh.walBytesTotal.Load(),
						SnapshotBytesTotal: sh.snapBytesTotal.Load(),
						ShipBytesTotal:     sh.shipBytesTotal.Load(),
						CodecInternEntries: sh.internEntries.Load(),
					})
				}
			}
			return agg
		}))
	})
}

func unregisterEngine(e *Engine) {
	enginesMu.Lock()
	delete(engines, e)
	enginesMu.Unlock()
}
