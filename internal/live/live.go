// Package live is the online verification plane: a per-process oracle that
// answers the paper's decision questions — goal reachability (Theorem 3.2),
// T_past-input temporal properties (Theorem 3.3), and the §2.1 progress
// service — *from a running session's current state*, rather than offline
// for a whole transducer.
//
// These questions are NEXPTIME-complete in general, so the service treats
// them as an expensive, explicitly-governed resource:
//
//   - Answers are memoized in a shared cache keyed by (machine fingerprint,
//     database, canonicalized prefix, query). Spocus state is exactly the
//     set of cumulated past inputs, so the prefix is canonicalized to that
//     set: two sessions of one model that reached the same state — by any
//     input order, at any step count — share one cache entry.
//   - Cache misses run on a bounded worker pool with a bounded admission
//     queue; beyond that the query is rejected immediately with
//     OverloadedError (HTTP 429 + Retry-After), mirroring the session
//     engine's shard-mailbox backpressure.
//   - Every computation carries a per-query timeout and inherits the
//     caller's context, so an abandoned HTTP request cancels its solver.
//   - Underneath, all queries against one model share a verify.Cache of
//     solved SAT subproblems, scoped by machine fingerprint.
//
// Metrics are exported under the expvar key "spocus_live".
package live

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/verify"
)

// Config tunes a Service.
type Config struct {
	// Workers is the number of verification queries solved concurrently
	// (default GOMAXPROCS). Cache hits bypass the pool entirely.
	Workers int
	// Queue is the number of additional queries allowed to wait for a
	// worker (default 2×Workers; negative: no queue). Arrivals beyond
	// Workers+Queue are rejected with OverloadedError — the saturation
	// signal.
	Queue int
	// Timeout bounds one query's wall-clock solving time (default 2s).
	// Expired queries surface context.DeadlineExceeded and are not cached.
	Timeout time.Duration
	// MaxConflicts bounds the SAT search per query (0: unlimited; the
	// timeout is then the only backstop).
	MaxConflicts int64
	// Parallelism is the per-query verify parallelism (default 1: the
	// worker pool, not the individual query, provides concurrency).
	Parallelism int
	// SuggestBudget bounds the transducer executions of one progress query
	// (default verify.DefaultSuggestBudget).
	SuggestBudget int
	// MaxEntries caps the answer cache (default 8192). Overflow evicts the
	// stalest completed entry: the one whose prefix depth lags furthest
	// behind the deepest prefix seen for its machine+database group.
	// Sessions only move forward through prefixes, so short-prefix answers
	// are dead weight once sessions advance — the frontier stays cached.
	MaxEntries int

	// evictRandom restores the pre-depth-aware policy (random replacement
	// via map order). Test-only knob for comparing hit rates.
	evictRandom bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	} else if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.SuggestBudget <= 0 {
		c.SuggestBudget = verify.DefaultSuggestBudget
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 8192
	}
	return c
}

// Source identifies what a query is asked of: a session's machine (by
// registry model name or inline source), its database, and its cumulated
// past inputs. The instances must be stable snapshots — the service reads
// them concurrently and retains references in cached answers (the session
// engine's Peek provides exactly this).
type Source struct {
	Model string
	Src   string
	// DB is the session's database.
	DB relation.Instance
	// Past is the union of all inputs the session has absorbed — the whole
	// of a Spocus session's verification-relevant state.
	Past relation.Instance
}

// Service is the live verification oracle. It is safe for concurrent use.
type Service struct {
	cfg      Config
	slots    chan struct{}
	inflight atomic.Int64

	mu       sync.Mutex
	machines map[string]*machineEntry
	vcaches  map[string]*verify.Cache
	answers  map[answerKey]*entry
	// maxDepth is the deepest prefix seen per machine+database group — the
	// eviction policy's high-water mark. Monotone; never shrinks on evict.
	maxDepth map[string]int

	m liveMetrics
}

// machineEntry is one resolved machine plus its fingerprint-scoped solver
// cache, shared by every session and query of that machine.
type machineEntry struct {
	mach   *core.Machine
	fp     string
	vcache *verify.Cache
}

type answerKey struct {
	fp     string // machine fingerprint
	db     string // canonical database rendering
	prefix string // canonical cumulated-input rendering
	kind   string // "goal" | "temporal" | "progress"
	query  string // normalized query text
}

// entry is one answer-cache slot with single-flight semantics: the first
// asker computes, concurrent identical queries wait on done and share the
// result instead of occupying workers.
type entry struct {
	done chan struct{}
	val  any
	err  error
	// depth is the prefix's tuple count and group its machine+database
	// coordinate — together they let eviction rank this answer's staleness
	// against the deepest prefix the group has reached.
	depth int
	group string
}

// New creates a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.Workers),
		machines: make(map[string]*machineEntry),
		vcaches:  make(map[string]*verify.Cache),
		answers:  make(map[answerKey]*entry),
		maxDepth: make(map[string]int),
	}
	registerService(s)
	return s
}

// resolve returns the machine entry for a source, building and caching it
// on first use. Only Spocus machines are admitted — the decision procedures
// are proved for exactly that class.
func (s *Service) resolve(src Source) (*machineEntry, error) {
	var key string
	switch {
	case src.Model != "" && src.Src == "":
		key = "model\x00" + src.Model
	case src.Src != "" && src.Model == "":
		sum := sha256.Sum256([]byte(src.Src))
		key = "src\x00" + hex.EncodeToString(sum[:16])
	default:
		return nil, &BadQueryError{Err: fmt.Errorf("live: source needs exactly one of model or src")}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.machines[key]; ok {
		return e, nil
	}
	var mach *core.Machine
	if src.Model != "" {
		if mach = models.Get(src.Model); mach == nil {
			return nil, &BadQueryError{Err: fmt.Errorf("live: unknown model %q", src.Model)}
		}
	} else {
		var err error
		if mach, err = core.ParseProgram(src.Src); err != nil {
			return nil, &BadQueryError{Err: fmt.Errorf("live: %w", err)}
		}
	}
	if mach.Kind() != core.KindSpocus {
		return nil, &BadQueryError{Err: fmt.Errorf("live: %s machine %q: online verification requires a Spocus transducer", mach.Kind(), mach.Name())}
	}
	fp := mach.Fingerprint()
	vc, ok := s.vcaches[fp]
	if !ok {
		vc = verify.NewCache()
		s.vcaches[fp] = vc
	}
	e := &machineEntry{mach: mach, fp: fp, vcache: vc}
	s.machines[key] = e
	return e, nil
}

// canonicalInstance renders an instance deterministically: relations in
// name order, tuples in key order. Two sessions with equal cumulated inputs
// render identically regardless of input order or step count.
func canonicalInstance(in relation.Instance) string {
	if in == nil {
		return ""
	}
	names := make([]string, 0, len(in))
	for name := range in {
		if in[name].Len() == 0 {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		keys := make([]string, 0, in[name].Len())
		for _, t := range in[name].Tuples() {
			keys = append(keys, t.Key())
		}
		// Tuples() is already sorted, but do not depend on it here: the
		// cache key must stay canonical even if that contract shifts.
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteByte('\x01')
			b.WriteString(k)
		}
		b.WriteByte('\x02')
	}
	return b.String()
}

// prefixSeq turns the cumulated past inputs into the canonical one-step
// prefix handed to the decision procedures. For a Spocus machine this is
// behaviorally interchangeable with the session's real input sequence:
// state after the prefix is exactly the cumulated input set.
func prefixSeq(past relation.Instance) relation.Sequence {
	if past == nil || past.Len() == 0 {
		return nil
	}
	return relation.Sequence{past}
}

// prefixDepth measures how far a session has advanced: the total tuple
// count of its cumulated past. Monotone along any Spocus run, so it orders
// a group's cache entries oldest-state-first for eviction.
func prefixDepth(past relation.Instance) int {
	if past == nil {
		return 0
	}
	return past.Len()
}

// acquire admits one computation: it takes a waiting slot if fewer than
// Workers+Queue computations are in flight and then blocks for a worker,
// or rejects immediately with OverloadedError.
func (s *Service) acquire(ctx context.Context) error {
	if n := s.inflight.Add(1); n > int64(s.cfg.Workers+s.cfg.Queue) {
		s.inflight.Add(-1)
		s.m.rejected.Add(1)
		return &OverloadedError{InFlight: int(n - 1)}
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.inflight.Add(-1)
		return ctx.Err()
	}
}

func (s *Service) release() {
	<-s.slots
	s.inflight.Add(-1)
}

// getOrCompute is the memoized, admission-controlled execution path shared
// by all query kinds. It returns (answer, servedFromCache, error). Errors
// are never cached. An in-flight identical query is joined rather than
// recomputed; such waiters are counted as coalesced, not as cache hits —
// they spend no solver work but still pay the solve's latency, so only
// answers served from a completed entry report Cached (and are the
// demonstrably cheap path).
func (s *Service) getOrCompute(ctx context.Context, key answerKey, depth int, compute func(context.Context) (any, error)) (any, bool, error) {
	group := key.fp + "\x00" + key.db
	s.mu.Lock()
	if depth > s.maxDepth[group] {
		s.maxDepth[group] = depth
	}
	if e, ok := s.answers[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			return e.val, true, e.err
		default:
		}
		s.m.coalesced.Add(1)
		select {
		case <-e.done:
			return e.val, false, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &entry{done: make(chan struct{}), depth: depth, group: group}
	s.answers[key] = e
	s.evictLocked()
	s.mu.Unlock()

	finish := func(v any, err error) {
		e.val, e.err = v, err
		if err != nil {
			// Failed computations (timeout, overload, cancellation) are not
			// cached: the next asker retries.
			s.mu.Lock()
			if s.answers[key] == e {
				delete(s.answers, key)
			}
			s.mu.Unlock()
		}
		close(e.done)
	}

	if err := s.acquire(ctx); err != nil {
		finish(nil, err)
		return nil, false, err
	}
	defer s.release()
	qctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	v, err := compute(qctx)
	if err != nil && qctx.Err() == context.DeadlineExceeded {
		s.m.timeouts.Add(1)
		err = context.DeadlineExceeded
	}
	finish(v, err)
	return v, false, err
}

// evictLocked bounds the answer map. The policy exploits the Spocus prefix
// order: a session's cumulated past only grows, so an answer whose prefix
// depth lags far behind the deepest prefix its machine+database group has
// reached belongs to a state no session will revisit. Each pass evicts the
// completed entry with the greatest staleness (maxDepth[group] − depth);
// in-flight entries are never evicted — waiters hold them.
func (s *Service) evictLocked() {
	if s.cfg.evictRandom {
		for key, e := range s.answers {
			if len(s.answers) <= s.cfg.MaxEntries {
				return
			}
			select {
			case <-e.done:
				delete(s.answers, key)
				s.m.evicted.Add(1)
			default:
			}
		}
		return
	}
	for len(s.answers) > s.cfg.MaxEntries {
		var victim answerKey
		stalest, found := -1, false
		for key, e := range s.answers {
			select {
			case <-e.done:
			default:
				continue // in-flight
			}
			if stale := s.maxDepth[e.group] - e.depth; stale > stalest {
				victim, stalest, found = key, stale, true
			}
		}
		if !found {
			return // everything in-flight; cap is soft
		}
		delete(s.answers, victim)
		s.m.evicted.Add(1)
	}
}

func (s *Service) opts(ctx context.Context, me *machineEntry) *verify.Options {
	return &verify.Options{
		Context:      ctx,
		Cache:        me.vcache,
		MaxConflicts: s.cfg.MaxConflicts,
		Parallelism:  s.cfg.Parallelism,
	}
}

// GoalAnswer is the wire answer of a reachability query.
type GoalAnswer struct {
	Goal      string            `json:"goal"`
	Reachable bool              `json:"reachable"`
	// Witness is a continuation input sequence achieving the goal (shared
	// with the cache — treat as read-only).
	Witness relation.Sequence `json:"witness,omitempty"`
	Cached  bool              `json:"cached"`
	// ElapsedMicros is this request's service time, including cache lookup.
	ElapsedMicros float64 `json:"elapsed_us"`
}

// Goal answers "can this session still reach the goal?" — Theorem 3.2's
// reachability from the session's current state.
func (s *Service) Goal(ctx context.Context, src Source, goal string) (*GoalAnswer, error) {
	start := time.Now()
	s.m.queries.Add(1)
	g, err := verify.ParseGoal(goal)
	if err != nil {
		s.m.errors.Add(1)
		return nil, &BadQueryError{Err: err}
	}
	me, err := s.resolve(src)
	if err != nil {
		s.m.errors.Add(1)
		return nil, err
	}
	key := answerKey{fp: me.fp, db: canonicalInstance(src.DB), prefix: canonicalInstance(src.Past), kind: "goal", query: g.String()}
	v, cached, err := s.getOrCompute(ctx, key, prefixDepth(src.Past), func(ctx context.Context) (any, error) {
		res, err := verify.ReachGoalFrom(me.mach, src.DB, prefixSeq(src.Past), g, s.opts(ctx, me))
		if err != nil {
			return nil, err
		}
		return &GoalAnswer{Goal: g.String(), Reachable: res.Reachable, Witness: res.Witness}, nil
	})
	return done(s, v, cached, start, err, func(v any) *GoalAnswer {
		a := *v.(*GoalAnswer)
		a.Cached = cached
		a.ElapsedMicros = micros(start)
		return &a
	})
}

// TemporalAnswer is the wire answer of a temporal query.
type TemporalAnswer struct {
	Conditions []string `json:"conditions"`
	// Holds reports that no continuation of the session can violate any
	// condition at any future step.
	Holds bool `json:"holds"`
	// Violated names the condition a counterexample continuation violates.
	Violated string `json:"violated,omitempty"`
	// Counterexample is the violating continuation (read-only).
	Counterexample relation.Sequence `json:"counterexample,omitempty"`
	Cached         bool              `json:"cached"`
	ElapsedMicros  float64           `json:"elapsed_us"`
}

// Temporal answers "can this session still violate these T_past-input
// conditions?" — Theorem 3.3 from the session's current state.
func (s *Service) Temporal(ctx context.Context, src Source, conds []string) (*TemporalAnswer, error) {
	start := time.Now()
	s.m.queries.Add(1)
	if len(conds) == 0 {
		s.m.errors.Add(1)
		return nil, &BadQueryError{Err: fmt.Errorf("live: temporal query needs at least one condition")}
	}
	parsed := make([]*verify.Condition, len(conds))
	norm := make([]string, len(conds))
	for i, c := range conds {
		p, err := verify.ParseCondition(c)
		if err != nil {
			s.m.errors.Add(1)
			return nil, &BadQueryError{Err: err}
		}
		parsed[i], norm[i] = p, p.String()
	}
	me, err := s.resolve(src)
	if err != nil {
		s.m.errors.Add(1)
		return nil, err
	}
	key := answerKey{fp: me.fp, db: canonicalInstance(src.DB), prefix: canonicalInstance(src.Past), kind: "temporal", query: strings.Join(norm, "\x01")}
	v, cached, err := s.getOrCompute(ctx, key, prefixDepth(src.Past), func(ctx context.Context) (any, error) {
		res, err := verify.CheckTemporalFrom(me.mach, src.DB, prefixSeq(src.Past), parsed, s.opts(ctx, me))
		if err != nil {
			return nil, err
		}
		a := &TemporalAnswer{Conditions: norm, Holds: res.Holds}
		if res.Violated != nil {
			a.Violated = res.Violated.String()
			a.Counterexample = res.Counterexample
		}
		return a, nil
	})
	return done(s, v, cached, start, err, func(v any) *TemporalAnswer {
		a := *v.(*TemporalAnswer)
		a.Cached = cached
		a.ElapsedMicros = micros(start)
		return &a
	})
}

// ProgressSuggestion is one ranked next-input recommendation on the wire.
type ProgressSuggestion struct {
	// Input is the suggested fact, rendered as it would be input:
	// rel(c1,...,cn).
	Input    string `json:"input"`
	Distance int    `json:"distance"`
	// Follow, for distance 2, is one follow-up input completing the goal.
	Follow string `json:"follow,omitempty"`
}

// ProgressAnswer is the wire answer of a progress query.
type ProgressAnswer struct {
	Goal string `json:"goal"`
	// Suggestions is best-first: inputs achieving the goal immediately,
	// then inputs enabling it on the following step.
	Suggestions []ProgressSuggestion `json:"suggestions"`
	// Truncated reports the candidate budget ran out: missing suggestions
	// are unknown, not ruled out.
	Truncated     bool    `json:"truncated,omitempty"`
	Cached        bool    `json:"cached"`
	ElapsedMicros float64 `json:"elapsed_us"`
}

// Progress is the §2.1 progress service: ranked next inputs that advance
// the session toward the goal (Figure 1's order-then-pay shape).
func (s *Service) Progress(ctx context.Context, src Source, goal string) (*ProgressAnswer, error) {
	start := time.Now()
	s.m.queries.Add(1)
	g, err := verify.ParseGoal(goal)
	if err != nil {
		s.m.errors.Add(1)
		return nil, &BadQueryError{Err: err}
	}
	me, err := s.resolve(src)
	if err != nil {
		s.m.errors.Add(1)
		return nil, err
	}
	key := answerKey{fp: me.fp, db: canonicalInstance(src.DB), prefix: canonicalInstance(src.Past), kind: "progress", query: g.String()}
	v, cached, err := s.getOrCompute(ctx, key, prefixDepth(src.Past), func(ctx context.Context) (any, error) {
		res, err := verify.SuggestProgress(ctx, me.mach, src.DB, prefixSeq(src.Past), g, s.pool(me, src), s.cfg.SuggestBudget)
		if err != nil {
			return nil, err
		}
		a := &ProgressAnswer{Goal: g.String(), Truncated: res.Truncated}
		for _, sg := range res.Suggestions {
			w := ProgressSuggestion{Input: sg.Fact.String(), Distance: sg.Distance}
			if sg.Follow != nil {
				w.Follow = sg.Follow.String()
			}
			a.Suggestions = append(a.Suggestions, w)
		}
		return a, nil
	})
	return done(s, v, cached, start, err, func(v any) *ProgressAnswer {
		a := *v.(*ProgressAnswer)
		a.Cached = cached
		a.ElapsedMicros = micros(start)
		return &a
	})
}

// pool assembles the constant pool progress candidates draw from: the
// database's active domain, the session's past inputs, and the machine's
// rule constants.
func (s *Service) pool(me *machineEntry, src Source) []relation.Const {
	seen := map[relation.Const]bool{}
	var out []relation.Const
	add := func(cs []relation.Const) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	if src.DB != nil {
		add(src.DB.ActiveDomain())
	}
	if src.Past != nil {
		add(src.Past.ActiveDomain())
	}
	add(me.mach.Constants())
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// done finalizes one query: error/latency accounting plus per-request
// decoration of the (shared, read-only) cached answer.
func done[T any](s *Service, v any, cached bool, start time.Time, err error, wrap func(any) *T) (*T, error) {
	if err != nil {
		s.m.errors.Add(1)
		return nil, err
	}
	if cached {
		s.m.hits.Add(1)
	}
	s.m.latency.Observe(int64(time.Since(start)))
	return wrap(v), nil
}

func micros(start time.Time) float64 { return float64(time.Since(start)) / 1e3 }

// OverloadedError reports a query rejected because the worker pool and its
// admission queue are saturated. The HTTP layer maps it to 429; clients
// should back off and retry — or rely on a cached answer appearing once a
// duplicate query completes.
type OverloadedError struct{ InFlight int }

func (err *OverloadedError) Error() string {
	return fmt.Sprintf("live verification overloaded: %d queries in flight", err.InFlight)
}

// BadQueryError reports a malformed query or source (unparsable goal or
// condition, unknown model, non-Spocus machine). Mapped to HTTP 400.
type BadQueryError struct{ Err error }

func (err *BadQueryError) Error() string { return err.Err.Error() }
func (err *BadQueryError) Unwrap() error { return err.Err }
