package ra

import (
	"expvar"
	"sync/atomic"
)

// Package-wide counters for the compiled engine, exported under the expvar
// key "spocus_ra". Rows pulled is accumulated per Eval in the context and
// flushed once, so the hot loop never touches an atomic.
var (
	plansCompiled atomic.Int64 // Compile calls that produced a plan
	planCacheHits atomic.Int64 // plan-cache hits (incremented by core's cache)
	evals         atomic.Int64 // Plan.Eval calls
	rowsPulled    atomic.Int64 // iterator rows pulled across all Evals
)

// NoteCacheHit records a plan-cache hit; the cache itself lives with the
// machines (package core), the counter with the engine it describes.
func NoteCacheHit() { planCacheHits.Add(1) }

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	PlansCompiled int64 `json:"plans_compiled"`
	PlanCacheHits int64 `json:"plan_cache_hits"`
	Evals         int64 `json:"evals_total"`
	RowsPulled    int64 `json:"rows_pulled_total"`
	// Always 0; benchmark/metrics.go reads it, so removing it and the ra.tree_fallbacks metric is a benchmark-archetype follow-up.
	TreeFallbacks int64 `json:"tree_fallbacks_total"`
}

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		PlansCompiled: plansCompiled.Load(),
		PlanCacheHits: planCacheHits.Load(),
		Evals:         evals.Load(),
		RowsPulled:    rowsPulled.Load(),
	}
}

func init() {
	expvar.Publish("spocus_ra", expvar.Func(func() any { return Snapshot() }))
}
