package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/wire"
)

// benchResult is the bench subcommand's JSON report.
type benchResult struct {
	Model        string  `json:"model"`
	Mode         string  `json:"mode"` // "inproc" or "http"
	URL          string  `json:"url,omitempty"`
	Sessions     int     `json:"sessions"`
	StepsPerSess int     `json:"steps_per_session"`
	Batch        int     `json:"batch,omitempty"` // sessions per pipelined batch (0/1: single-step)
	StepsTotal   int     `json:"steps_total"`
	Shards       int     `json:"shards,omitempty"`
	Fsync        string  `json:"fsync,omitempty"`
	Durable      bool    `json:"durable"`
	Retried429   int64   `json:"retried_429,omitempty"`
	ElapsedSec   float64 `json:"elapsed_s"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	OpenSec      float64 `json:"open_s"`
	// Latency is per step: in a batched run a step's cost is its share of
	// its envelope's ack (ack / items carried), because the envelope acked
	// all of them with one round trip. BatchAck keeps the unamortized
	// whole-envelope distribution alongside.
	Latency struct {
		P50Micros float64 `json:"p50_us"`
		P90Micros float64 `json:"p90_us"`
		P99Micros float64 `json:"p99_us"`
		MaxMicros float64 `json:"max_us"`
	} `json:"step_latency"`
	BatchAck *batchAckLatency `json:"batch_ack_latency,omitempty"`
	// Verify* report the live-verification side load when -verify-mix > 0.
	VerifyMix     float64        `json:"verify_mix,omitempty"`
	VerifyTotal   int            `json:"verify_total,omitempty"`
	VerifyCached  int            `json:"verify_cached_total,omitempty"`
	VerifyHitRate float64        `json:"verify_cache_hit_rate,omitempty"`
	VerifyLatency *verifySplits  `json:"verify_latency,omitempty"`
	Engine        *session.Stats `json:"engine,omitempty"`
}

// batchAckLatency is the whole-envelope ack distribution of a batched
// run: how long one pipelined round trip took, before amortizing it over
// the steps it carried.
type batchAckLatency struct {
	P50Micros float64 `json:"p50_us"`
	P90Micros float64 `json:"p90_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`
}

// verifySplits separates cold (solver-computed) from cache-hit verify
// latencies: the baseline's evidence that the hit path is cheaper.
type verifySplits struct {
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	ColdP50Micros float64 `json:"cold_p50_us"`
	ColdP99Micros float64 `json:"cold_p99_us"`
	HitP50Micros  float64 `json:"hit_p50_us"`
	HitP99Micros  float64 `json:"hit_p99_us"`
	MaxMicros     float64 `json:"max_us"`
}

// benchTarget abstracts where the load goes: the in-process engine, or an
// HTTP base URL (a spocus-server — or a spocus-router fronting many).
type benchTarget interface {
	open(id, model string, db relation.Instance) error
	step(id string, in relation.Instance) error
	// stepBatch advances many sessions in one shot — one group-commit on the
	// engine, one pipelined /batch request over HTTP.
	stepBatch(items []session.BatchItem) error
	// verify asks "is the goal still reachable?" of the session's current
	// state and reports whether the answer came from the shared cache.
	verify(id, goal string) (cached bool, err error)
	finish(res *benchResult)
}

// batchPreparer is a benchTarget's optional fast path: the driver
// pre-encodes each round's envelope outside the timed region, so the
// measured loop sends prebuilt bytes and the bench gauges the server's
// wire rather than the driver's JSON encoder (load generators pre-build
// request bodies for the same reason).
type batchPreparer interface {
	prepareBatch(items []session.BatchItem) ([]byte, error)
	stepPrepared(body []byte, items []session.BatchItem) error
}

type engineTarget struct {
	eng     *session.Engine
	lv      *live.Service
	mu      sync.Mutex
	retries int64
}

func (t *engineTarget) open(id, model string, db relation.Instance) error {
	_, err := t.eng.Open(&session.OpenRequest{ID: id, Model: model, DB: db})
	return err
}

func (t *engineTarget) step(id string, in relation.Instance) error {
	_, err := t.eng.Input(id, in)
	return err
}

func (t *engineTarget) stepBatch(items []session.BatchItem) error {
	for _, r := range t.eng.InputBatch(items) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func (t *engineTarget) verify(id, goal string) (bool, error) {
	view, err := t.eng.Peek(id)
	if err != nil {
		return false, err
	}
	src := live.Source{Model: view.Model, Src: view.Src, DB: view.DB, Past: view.Past}
	// Saturation backoff mirrors httpTarget.withRetry: the verification
	// plane sheds load by design, and the bench measures goodput.
	for attempt := 0; ; attempt++ {
		a, err := t.lv.Goal(context.Background(), src, goal)
		if err == nil {
			return a.Cached, nil
		}
		if _, ok := err.(*live.OverloadedError); !ok || attempt == 7 {
			return false, err
		}
		t.mu.Lock()
		t.retries++
		t.mu.Unlock()
		time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
	}
}

func (t *engineTarget) finish(res *benchResult) {
	res.Mode = "inproc"
	res.Shards = t.eng.Shards()
	res.Retried429 += t.retries
	st := t.eng.Stats()
	res.Engine = &st
	t.eng.Shutdown()
}

// httpTarget drives the wire API through a shared wire client. 429
// backpressure responses are retried with backoff (and counted): under
// overload the bench measures goodput, not error throughput.
type httpTarget struct {
	base    string
	client  *wire.Client
	mu      sync.Mutex
	retries int64
}

func (t *httpTarget) post(url string, body, out any) error {
	return t.client.PostJSON(context.Background(), url, body, out, nil)
}

func (t *httpTarget) noteRetry() {
	t.mu.Lock()
	t.retries++
	t.mu.Unlock()
}

// withRetry retries 429 (mailbox full) and 503 (handoff freeze) with
// backoff; other failures are final.
func (t *httpTarget) withRetry(f func() error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		if !wire.Retryable(err) {
			return err
		}
		t.noteRetry()
		time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
	}
	return err
}

func (t *httpTarget) open(id, model string, db relation.Instance) error {
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions", &session.OpenRequest{ID: id, Model: model, DB: db}, nil)
	})
}

func (t *httpTarget) step(id string, in relation.Instance) error {
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions/"+id+"/input", map[string]any{"input": in}, nil)
	})
}

// stepBatch drives one multi-session batch through POST /batch. The
// envelope travels under withRetry like any other post; shedding inside it
// stays per item — only the 429/503 items are resent.
func (t *httpTarget) stepBatch(items []session.BatchItem) error {
	pending := items
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			t.noteRetry()
			time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
		}
		var resp session.BatchResponse
		if err := t.withRetry(func() error {
			resp = session.BatchResponse{}
			// results=errors: the driver needs acks, not outputs — an all-OK
			// envelope answers with a constant-size body, so the wire measures
			// batching, not response encoding.
			return t.post(t.base+"/batch", session.BatchRequest{Steps: pending, Results: "errors"}, &resp)
		}); err != nil {
			return err
		}
		t.client.ObserveBatch(len(pending))
		again, err := shedItems(&resp, pending)
		if err != nil {
			return err
		}
		if len(again) == 0 {
			return nil
		}
		pending = again
	}
	return fmt.Errorf("batch: %d items still shedding after retries", len(pending))
}

// shedItems folds a sparse (results=errors) batch response into the items
// to resend: 429/503 failures are shed load, anything else is final.
func shedItems(resp *session.BatchResponse, items []session.BatchItem) ([]session.BatchItem, error) {
	if resp.N != len(items) {
		return nil, fmt.Errorf("batch: %d items acked for %d steps", resp.N, len(items))
	}
	var again []session.BatchItem
	for _, f := range resp.Failed {
		if f.Pos < 0 || f.Pos >= len(items) {
			return nil, fmt.Errorf("batch: failed position %d outside %d steps", f.Pos, len(items))
		}
		switch f.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			again = append(again, items[f.Pos])
		default:
			return nil, fmt.Errorf("batch item %s: status %d: %s", items[f.Pos].Session, f.Status, f.Error)
		}
	}
	return again, nil
}

// prepareBatch pre-encodes one round's /batch envelope in the same sparse
// results=errors shape stepBatch asks for.
func (t *httpTarget) prepareBatch(items []session.BatchItem) ([]byte, error) {
	return json.Marshal(session.BatchRequest{Steps: items, Results: "errors"})
}

// stepPrepared sends a pre-encoded envelope. Shed items (429/503) go back
// through the typed stepBatch path — re-encoding the rare remainder beats
// pre-building every retry permutation.
func (t *httpTarget) stepPrepared(body []byte, items []session.BatchItem) error {
	var resp session.BatchResponse
	if err := t.withRetry(func() error {
		resp = session.BatchResponse{}
		return t.client.PostBytes(context.Background(), t.base+"/batch", "application/json", body, &resp, nil)
	}); err != nil {
		return err
	}
	t.client.ObserveBatch(len(items))
	again, err := shedItems(&resp, items)
	if err != nil {
		return err
	}
	if len(again) == 0 {
		return nil
	}
	return t.stepBatch(again)
}

func (t *httpTarget) verify(id, goal string) (bool, error) {
	var out struct {
		Cached bool `json:"cached"`
	}
	err := t.withRetry(func() error {
		return t.client.GetJSON(context.Background(),
			t.base+"/sessions/"+id+"/verify?goal="+neturl.QueryEscape(goal), &out)
	})
	return out.Cached, err
}

func (t *httpTarget) finish(res *benchResult) {
	res.Mode = "http"
	res.URL = t.base
	res.Retried429 = t.retries
	t.client.Close()
}

func bench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		nSessions = fs.Int("sessions", 1000, "concurrent sessions to drive")
		nSteps    = fs.Int("steps", 30, "steps per session")
		model     = fs.String("model", "short", "scripted run: short | friendly")
		url       = fs.String("url", "", "drive load over HTTP against this base URL (a spocus-server or spocus-router) instead of in-process")
		batch     = fs.Int("batch", 1, "sessions per pipelined batch request: groups of this many sessions advance in lockstep through POST /batch (1: the single-step path)")
		verifyMix = fs.Float64("verify-mix", 0, "fraction of steps followed by a live verify query (e.g. 0.1: one query per 10 steps)")

		scenarios        = fs.String("scenarios", "", "run a scenario fleet instead of the single-model bench: 'builtin' or a JSON fleet file; each scenario runs in-process AND through an in-process router over loopback TCP (see internal/scenario)")
		scenarioBackends = fs.Int("scenario-backends", 2, "backends behind the router in the -scenarios router path")
		scenarioRepl     = fs.Bool("scenario-replication", false, "with -scenarios: attach a warm follower to every router-path backend and report replication-lag percentiles; implies durable engines (a temp dir is used when -dir is unset)")

		fsyncMatrix   = fs.Bool("fsync-matrix", false, "run the in-process bench across the durability matrix (wal-never, wal-interval, wal-always-batch1, wal-always-group), each on a fresh temp dir; emits a JSON array")
		codecMatrix   = fs.Bool("codec-matrix", false, "measure the binary WAL codec against JSON on every surface (WAL density, crash recovery, ship, replication stream) over one -steps-long session; emits a JSON array")
		replication   = fs.Bool("replication", false, "measure the replication plane: the -fsync always workload with and without a live follower streaming every shard, plus promotion-vs-replay timings at -promote-steps")
		promoteSteps  = fs.Int("promote-steps", 1000, "session size for the -replication promotion-vs-replay comparison")
		promoteRounds = fs.Int("promote-rounds", 3, "rounds per mode in the -replication promotion comparison")
		handoffSteps  = fs.Int("handoff-steps", 0, "with -url pointing at a spocus-router: open one session, drive this many steps, then time handoffs of it between backends")
		handoffRounds = fs.Int("handoff-rounds", 5, "handoffs timed under -handoff-steps")
	)
	build := engineFlags(fs, "never")
	fs.Parse(args)

	if *scenarios != "" {
		cfg, err := build()
		if err != nil {
			fatal(err)
		}
		benchScenarios(cfg, *scenarios, *scenarioBackends, *scenarioRepl, *batch)
		return
	}

	script, db, err := scriptFor(*model)
	if err != nil {
		fatal(err)
	}

	if *handoffSteps > 0 {
		if *url == "" {
			fatal(fmt.Errorf("-handoff-steps needs -url pointing at a spocus-router"))
		}
		benchHandoff(strings.TrimRight(*url, "/"), *model, db, script, *handoffSteps, *handoffRounds)
		return
	}
	if *codecMatrix {
		benchCodecMatrix(*model, db, script, *nSteps)
		return
	}
	if *fsyncMatrix {
		cfg, err := build()
		if err != nil {
			fatal(err)
		}
		benchFsyncMatrix(cfg, *model, db, script, *nSessions, *nSteps, *verifyMix)
		return
	}
	if *replication {
		cfg, err := build()
		if err != nil {
			fatal(err)
		}
		benchReplication(cfg, *model, db, script, *nSessions, *nSteps, *promoteSteps, *promoteRounds)
		return
	}

	var target benchTarget
	if *url != "" {
		target = &httpTarget{
			base: strings.TrimRight(*url, "/"),
			// One keep-alive connection per concurrent driver: the default
			// transport's 2-per-host idle cap would serialize the load
			// through constant reconnects.
			client: wire.New(wire.Config{
				Name:                "bench",
				MaxIdleConns:        *nSessions + 16,
				MaxIdleConnsPerHost: *nSessions + 16,
			}),
		}
	} else {
		cfg, err := build()
		if err != nil {
			fatal(err)
		}
		eng, err := session.NewEngine(cfg)
		if err != nil {
			fatal(err)
		}
		// Queue sized to the offered load: the bench measures goodput, so
		// in-process it queues rather than sheds (the 429 shed path is
		// exercised by the live-plane tests and the HTTP mode).
		target = &engineTarget{eng: eng, lv: live.New(live.Config{Queue: *nSessions})}
	}

	res := runLoadBatched(target, script, db, *model, *nSessions, *nSteps, *verifyMix, *batch)
	if *url == "" {
		res.Fsync = fs.Lookup("fsync").Value.String()
		res.Durable = fs.Lookup("dir").Value.String() != ""
	}
	emit(res)
}

// openAll opens the bench's session fleet so the timed region measures
// pure stepping, returning the IDs and the open-phase duration.
func openAll(target benchTarget, model string, db relation.Instance, nSessions int) ([]string, time.Duration) {
	openStart := time.Now()
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%06d", i)
		if err := target.open(ids[i], model, db); err != nil {
			fatal(err)
		}
	}
	return ids, time.Since(openStart)
}

// finishLoad folds the collected latencies into the report shape shared by
// the single-step and batched drivers (target.finish also shuts the target
// down, so call it exactly once).
func finishLoad(target benchTarget, model string, nSessions, nSteps int, all []time.Duration, elapsed, openElapsed time.Duration) benchResult {
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(q*float64(len(all)-1))]) / 1e3
	}
	res := benchResult{
		Model:        model,
		Sessions:     nSessions,
		StepsPerSess: nSteps,
		StepsTotal:   len(all),
		ElapsedSec:   elapsed.Seconds(),
		StepsPerSec:  float64(len(all)) / elapsed.Seconds(),
		OpenSec:      openElapsed.Seconds(),
	}
	target.finish(&res)
	res.Latency.P50Micros = pct(0.50)
	res.Latency.P90Micros = pct(0.90)
	res.Latency.P99Micros = pct(0.99)
	res.Latency.MaxMicros = pct(1.0)
	return res
}

// runLoadBatched is runLoad with pipelined batching: groups of batch
// sessions advance in lockstep, one stepBatch call carrying one step of
// each per round, so a single group-commit fsync (in-process) or one
// routed /batch round trip (HTTP) acks batch steps at once. batch <= 1
// falls through to the single-step driver.
func runLoadBatched(target benchTarget, script func(int, int) relation.Instance, db relation.Instance, model string, nSessions, nSteps int, verifyMix float64, batch int) benchResult {
	if batch <= 1 {
		return runLoad(target, script, db, model, nSessions, nSteps, verifyMix)
	}
	if verifyMix > 0 {
		fatal(fmt.Errorf("bench: -batch and -verify-mix are mutually exclusive"))
	}
	ids, openElapsed := openAll(target, model, db, nSessions)

	nGroups := (nSessions + batch - 1) / batch

	// Over HTTP, pre-build every round's items and encoded envelope before
	// the clock starts: the timed region then measures the wire and the
	// engine, not the driver's input generation. In-process there is no
	// envelope, so rounds are built inline as before.
	prep, _ := target.(batchPreparer)
	var rounds [][][]session.BatchItem // [group][round] pre-built items
	var bodies [][][]byte              // [group][round] pre-encoded envelopes
	if prep != nil {
		rounds = make([][][]session.BatchItem, nGroups)
		bodies = make([][][]byte, nGroups)
		for g := 0; g < nGroups; g++ {
			lo, hi := g*batch, min((g+1)*batch, nSessions)
			rounds[g] = make([][]session.BatchItem, nSteps)
			bodies[g] = make([][]byte, nSteps)
			for j := 0; j < nSteps; j++ {
				items := make([]session.BatchItem, hi-lo)
				for i := lo; i < hi; i++ {
					items[i-lo] = session.BatchItem{Session: ids[i], Input: script(i, j)}
				}
				body, err := prep.prepareBatch(items)
				if err != nil {
					fatal(err)
				}
				rounds[g][j], bodies[g][j] = items, body
			}
		}
	}

	lats := make([][]time.Duration, nGroups)
	ackLats := make([][]time.Duration, nGroups)
	errs := make(chan error, nGroups)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < nGroups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo, hi := g*batch, min((g+1)*batch, nSessions)
			lat := make([]time.Duration, 0, nSteps*(hi-lo))
			acks := make([]time.Duration, 0, nSteps)
			items := make([]session.BatchItem, hi-lo)
			for j := 0; j < nSteps; j++ {
				var err error
				t0 := time.Now()
				if prep != nil {
					err = prep.stepPrepared(bodies[g][j], rounds[g][j])
				} else {
					for i := lo; i < hi; i++ {
						items[i-lo] = session.BatchItem{Session: ids[i], Input: script(i, j)}
					}
					err = target.stepBatch(items)
				}
				if err != nil {
					errs <- fmt.Errorf("batch group %d step %d: %w", g, j+1, err)
					return
				}
				d := time.Since(t0)
				acks = append(acks, d)
				// One ack covered hi-lo steps: each step's share of the round
				// trip is the amortized cost the pipelined wire charges it.
				per := d / time.Duration(hi-lo)
				for i := lo; i < hi; i++ {
					lat = append(lat, per)
				}
			}
			lats[g] = lat
			ackLats[g] = acks
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		fatal(err)
	}

	var all, allAcks []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	for _, l := range ackLats {
		allAcks = append(allAcks, l...)
	}
	res := finishLoad(target, model, nSessions, nSteps, all, elapsed, openElapsed)
	res.Batch = batch
	sort.Slice(allAcks, func(i, j int) bool { return allAcks[i] < allAcks[j] })
	ackPct := func(q float64) float64 {
		if len(allAcks) == 0 {
			return 0
		}
		return float64(allAcks[int(q*float64(len(allAcks)-1))]) / 1e3
	}
	res.BatchAck = &batchAckLatency{
		P50Micros: ackPct(0.50),
		P90Micros: ackPct(0.90),
		P99Micros: ackPct(0.99),
		MaxMicros: ackPct(1.0),
	}
	return res
}

// runLoad opens nSessions sessions on target and drives each through
// nSteps scripted steps concurrently, returning the throughput/latency
// report (target.finish folds in target-side stats and shuts it down).
func runLoad(target benchTarget, script func(int, int) relation.Instance, db relation.Instance, model string, nSessions, nSteps int, verifyMix float64) benchResult {
	// Open all sessions first so the timed region measures pure stepping.
	ids, openElapsed := openAll(target, model, db, nSessions)

	// One goroutine per session: M concurrent customers, each stepping its
	// own session sequentially — the paper's exchange loop at scale. With
	// -verify-mix > 0, every session asks "can I still reach delivery?"
	// after a deterministic subset of its steps, the way a storefront would
	// poll the progress service mid-checkout.
	verifyEvery := 0
	if verifyMix > 0 {
		verifyEvery = int(math.Max(1, math.Round(1/verifyMix)))
	}
	type verifySample struct {
		d      time.Duration
		cached bool
	}
	lats := make([][]time.Duration, nSessions)
	vlats := make([][]verifySample, nSessions)
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	start := time.Now()
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, nSteps)
			var vlat []verifySample
			for j := 0; j < nSteps; j++ {
				in := script(i, j)
				t0 := time.Now()
				if err := target.step(ids[i], in); err != nil {
					errs <- fmt.Errorf("session %s step %d: %w", ids[i], j+1, err)
					return
				}
				lat = append(lat, time.Since(t0))
				if verifyEvery > 0 && j%verifyEvery == verifyEvery-1 {
					t0 = time.Now()
					cached, err := target.verify(ids[i], "deliver(X)")
					if err != nil {
						errs <- fmt.Errorf("session %s verify after step %d: %w", ids[i], j+1, err)
						return
					}
					vlat = append(vlat, verifySample{time.Since(t0), cached})
				}
			}
			lats[i] = lat
			vlats[i] = vlat
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		fatal(err)
	}

	// Warm pass, outside the timed region: every session re-issues its last
	// verify. With -steps a multiple of the sampling interval the answer is
	// already memoized, so these samples measure the true cache-hit path —
	// the in-loop samples are dominated by cold solves and coalesced waiters,
	// which pay the full solve latency.
	if verifyEvery > 0 {
		warm := make([][]verifySample, nSessions)
		var wwg sync.WaitGroup
		for i := range ids {
			wwg.Add(1)
			go func(i int) {
				defer wwg.Done()
				t0 := time.Now()
				cached, err := target.verify(ids[i], "deliver(X)")
				if err != nil {
					return // shed or expired: no sample
				}
				warm[i] = []verifySample{{time.Since(t0), cached}}
			}(i)
		}
		wwg.Wait()
		vlats = append(vlats, warm...)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	res := finishLoad(target, model, nSessions, nSteps, all, elapsed, openElapsed)

	if verifyEvery > 0 {
		var vall, cold, hit []time.Duration
		for _, vl := range vlats {
			for _, v := range vl {
				vall = append(vall, v.d)
				if v.cached {
					hit = append(hit, v.d)
				} else {
					cold = append(cold, v.d)
				}
			}
		}
		vpct := func(ds []time.Duration, q float64) float64 {
			if len(ds) == 0 {
				return 0
			}
			return float64(ds[int(q*float64(len(ds)-1))]) / 1e3
		}
		for _, ds := range [][]time.Duration{vall, cold, hit} {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		}
		res.VerifyMix = verifyMix
		res.VerifyTotal = len(vall)
		res.VerifyCached = len(hit)
		if len(vall) > 0 {
			res.VerifyHitRate = float64(len(hit)) / float64(len(vall))
			res.VerifyLatency = &verifySplits{
				P50Micros:     vpct(vall, 0.50),
				P99Micros:     vpct(vall, 0.99),
				ColdP50Micros: vpct(cold, 0.50),
				ColdP99Micros: vpct(cold, 0.99),
				HitP50Micros:  vpct(hit, 0.50),
				HitP99Micros:  vpct(hit, 0.99),
				MaxMicros:     float64(vall[len(vall)-1]) / 1e3,
			}
		}
	}

	return res
}

func emit(v any) {
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	if err := out.Encode(v); err != nil {
		fatal(err)
	}
}

// benchFsyncMatrix runs the in-process bench once per durability policy on
// a fresh temp dir each, holding the workload fixed: the spread between
// wal-never (the no-durability bound) and the wal-always rows is the price
// of the corresponding ack guarantee, and the distance group commit closes
// between wal-always-batch1 (one fsync per step) and the bound is its
// whole point.
func benchFsyncMatrix(cfg session.Config, model string, db relation.Instance, script func(int, int) relation.Instance, nSessions, nSteps int, verifyMix float64) {
	cases := []struct {
		name   string
		fsync  session.FsyncPolicy
		batch  int // 0: engine default (group commit on)
		window time.Duration
	}{
		{"wal-never", session.FsyncNever, 0, 0},
		{"wal-interval", session.FsyncInterval, 0, 0},
		{"wal-always-batch1", session.FsyncAlways, 1, 0},
		{"wal-always-group", session.FsyncAlways, 0, 200 * time.Microsecond},
	}
	results := make([]benchResult, 0, len(cases))
	for _, c := range cases {
		dir, err := os.MkdirTemp("", "spocus-bench-*")
		if err != nil {
			fatal(err)
		}
		cc := cfg
		cc.Dir, cc.Fsync, cc.GroupCommitBatch, cc.GroupCommitWindow = dir, c.fsync, c.batch, c.window
		eng, err := session.NewEngine(cc)
		if err != nil {
			os.RemoveAll(dir)
			fatal(err)
		}
		target := &engineTarget{eng: eng, lv: live.New(live.Config{Queue: nSessions})}
		res := runLoad(target, script, db, model, nSessions, nSteps, verifyMix)
		res.Fsync, res.Durable = c.name, true
		results = append(results, res)
		os.RemoveAll(dir)
	}
	emit(results)
}

// handoffTiming is one operation's timings in the handoff and replication
// bench reports.
type handoffTiming struct {
	Mode      string    `json:"mode"`
	Rounds    int       `json:"rounds"`
	MeanMs    float64   `json:"mean_ms"`
	MinMs     float64   `json:"min_ms"`
	MaxMs     float64   `json:"max_ms"`
	SamplesMs []float64 `json:"samples_ms"`
}

// benchHandoff times session handoff through a router at a fixed session
// size: shipping moves the state image and verifies a log digest, so cost
// tracks state and log size, not step count.
func benchHandoff(router, model string, db relation.Instance, script func(int, int) relation.Instance, steps, rounds int) {
	target := &httpTarget{base: router, client: wire.New(wire.Config{Name: "bench-handoff", Timeout: 5 * time.Minute})}
	defer target.client.Close()
	const id = "handoff-bench"
	if err := target.open(id, model, db); err != nil {
		fatal(err)
	}
	for j := 0; j < steps; j++ {
		if err := target.step(id, script(0, j)); err != nil {
			fatal(fmt.Errorf("step %d: %w", j+1, err))
		}
	}

	// The live backends, from the router's own ring.
	var shards struct {
		Members []struct {
			Addr string `json:"addr"`
			Up   bool   `json:"up"`
		} `json:"members"`
	}
	if err := target.client.GetJSON(context.Background(), router+"/debug/shards", &shards); err != nil {
		fatal(err)
	}
	var backends []string
	for _, m := range shards.Members {
		if m.Up {
			backends = append(backends, m.Addr)
		}
	}
	if len(backends) < 2 {
		fatal(fmt.Errorf("handoff bench needs >= 2 live backends, ring has %d", len(backends)))
	}
	owner := -1
	for b, u := range backends {
		if err := target.client.GetJSON(context.Background(), u+"/sessions/"+id, nil); err == nil {
			owner = b
		}
	}
	if owner < 0 {
		fatal(fmt.Errorf("no backend owns %s", id))
	}

	report := struct {
		URL      string          `json:"url"`
		Session  string          `json:"session"`
		Steps    int             `json:"steps"`
		Backends int             `json:"backends"`
		Handoffs []handoffTiming `json:"handoffs"`
	}{URL: router, Session: id, Steps: steps, Backends: len(backends)}

	ht := handoffTiming{Mode: "ship", Rounds: rounds, MinMs: math.Inf(1)}
	for r := 0; r < rounds; r++ {
		to := backends[(owner+1)%len(backends)]
		var hres struct {
			Steps int `json:"steps"`
		}
		t0 := time.Now()
		hurl := fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", router, id, neturl.QueryEscape(to))
		if err := target.post(hurl, nil, &hres); err != nil {
			fatal(err)
		}
		ms := float64(time.Since(t0)) / 1e6
		if hres.Steps != steps {
			fatal(fmt.Errorf("handoff came back steps=%d, want %d", hres.Steps, steps))
		}
		ht.SamplesMs = append(ht.SamplesMs, ms)
		ht.MeanMs += ms / float64(rounds)
		ht.MinMs = math.Min(ht.MinMs, ms)
		ht.MaxMs = math.Max(ht.MaxMs, ms)
		owner = (owner + 1) % len(backends)
	}
	report.Handoffs = append(report.Handoffs, ht)
	emit(report)
}

// scriptFor returns the per-session input script and a database sized for
// it. Scripts are deterministic in (session index, step index) so repeated
// bench runs are comparable.
func scriptFor(model string) (func(i, j int) relation.Instance, relation.Instance, error) {
	const nProducts = 16
	db := relation.NewInstance()
	products := make([]string, nProducts)
	prices := make([]string, nProducts)
	for p := 0; p < nProducts; p++ {
		products[p] = fmt.Sprintf("item-%02d", p)
		prices[p] = fmt.Sprintf("%d", 100+p)
		db.Add("price", relation.Tuple{relation.Const(products[p]), relation.Const(prices[p])})
		db.Add("available", relation.Tuple{relation.Const(products[p])})
	}
	// The shopping loop of Figure 1: order an item, pay for it on the next
	// step (triggering sendbill then deliver), moving through the catalogue.
	shop := func(i, j int) relation.Instance {
		p := (i + j/2) % nProducts
		in := relation.NewInstance()
		if j%2 == 0 {
			in.Add("order", relation.Tuple{relation.Const(products[p])})
		} else {
			in.Add("pay", relation.Tuple{relation.Const(products[p]), relation.Const(prices[p])})
		}
		return in
	}
	switch model {
	case "short":
		return shop, db, nil
	case "friendly":
		// Same loop, with a pending-bills reminder sweep every fifth step —
		// FRIENDLY's extra outputs (rebill, warnings) exercised under load.
		return func(i, j int) relation.Instance {
			if j%5 == 4 {
				in := relation.NewInstance()
				in.Ensure("pending-bills", 0).Add(relation.Tuple{})
				return in
			}
			return shop(i, j)
		}, db, nil
	}
	return nil, nil, fmt.Errorf("bench: unknown model %q (want short or friendly)", model)
}
