package live

import (
	"expvar"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// liveMetrics is one service's counters, atomics only — query goroutines
// never take a lock for bookkeeping.
type liveMetrics struct {
	queries   atomic.Int64
	hits      atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	timeouts  atomic.Int64
	errors    atomic.Int64
	evicted   atomic.Int64
	latency   obs.Hist // nanoseconds
}

// Stats is a point-in-time snapshot of a live service's metrics, also
// served at /debug/vars under the key "spocus_live".
type Stats struct {
	Queries   int64 `json:"queries_total"`
	CacheHits int64 `json:"cache_hits_total"`
	// CacheHitRate is CacheHits/Queries (0 before any query).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Coalesced counts queries that joined an identical in-flight
	// computation: no solver work spent, but the solve's full latency paid —
	// deliberately not counted as cache hits.
	Coalesced int64 `json:"coalesced_total"`
	// Rejected counts queries refused with 429 at saturation.
	Rejected int64 `json:"rejected_total"`
	// Timeouts counts queries that exceeded the per-query deadline.
	Timeouts int64 `json:"timeouts_total"`
	Errors   int64 `json:"errors_total"`
	// Evicted counts answers dropped by the cache's depth-aware eviction.
	Evicted int64 `json:"evictions_total"`
	// InFlight is the current number of admitted computations.
	InFlight int64 `json:"in_flight"`
	// AnswerEntries is the current answer-cache population.
	AnswerEntries int `json:"answer_entries"`
	// SolverHits/SolverMisses aggregate the per-machine verify caches of
	// solved SAT subproblems underneath the answer cache.
	SolverHits   uint64  `json:"solver_cache_hits_total"`
	SolverMisses uint64  `json:"solver_cache_misses_total"`
	P50Micros    float64 `json:"latency_p50_us"`
	P90Micros    float64 `json:"latency_p90_us"`
	P99Micros    float64 `json:"latency_p99_us"`
	MaxMicros    float64 `json:"latency_max_us"`
}

// Stats snapshots the service's metrics.
func (s *Service) Stats() Stats {
	queries := s.m.queries.Load()
	hits := s.m.hits.Load()
	var rate float64
	if queries > 0 {
		rate = float64(hits) / float64(queries)
	}
	st := Stats{
		Queries:      queries,
		CacheHits:    hits,
		CacheHitRate: rate,
		Coalesced:    s.m.coalesced.Load(),
		Rejected:     s.m.rejected.Load(),
		Timeouts:     s.m.timeouts.Load(),
		Errors:       s.m.errors.Load(),
		Evicted:      s.m.evicted.Load(),
		InFlight:     s.inflight.Load(),
		P50Micros:    float64(s.m.latency.Quantile(0.50)) / 1e3,
		P90Micros:    float64(s.m.latency.Quantile(0.90)) / 1e3,
		P99Micros:    float64(s.m.latency.Quantile(0.99)) / 1e3,
		MaxMicros:    float64(s.m.latency.Max()) / 1e3,
	}
	s.mu.Lock()
	st.AnswerEntries = len(s.answers)
	for _, vc := range s.vcaches {
		h, m := vc.Stats()
		st.SolverHits += h
		st.SolverMisses += m
	}
	s.mu.Unlock()
	return st
}

// services tracks live services so the process-wide expvar export can
// aggregate across them (a server normally has exactly one).
var (
	servicesMu sync.Mutex
	services   = make(map[*Service]bool)
	expvarOne  sync.Once
)

func registerService(s *Service) {
	servicesMu.Lock()
	services[s] = true
	servicesMu.Unlock()
	expvarOne.Do(func() {
		expvar.Publish("spocus_live", expvar.Func(func() any {
			servicesMu.Lock()
			defer servicesMu.Unlock()
			agg := make([]Stats, 0, len(services))
			for s := range services {
				agg = append(agg, s.Stats())
			}
			return agg
		}))
	})
}
