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
	Latency  latQuantiles  `json:"step_latency"`
	BatchAck *latQuantiles `json:"batch_ack_latency,omitempty"`
	// Verify* report the live-verification side load when -verify-mix > 0.
	VerifyMix     float64        `json:"verify_mix,omitempty"`
	VerifyTotal   int            `json:"verify_total,omitempty"`
	VerifyCached  int            `json:"verify_cached_total,omitempty"`
	VerifyHitRate float64        `json:"verify_cache_hit_rate,omitempty"`
	VerifyLatency *verifySplits  `json:"verify_latency,omitempty"`
	Engine        *session.Stats `json:"engine,omitempty"`
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
	open(id string, db relation.Instance) error
	step(id string, in relation.Instance) error
	// verify asks "is the goal still reachable?" of the session's current
	// state and reports whether the answer came from the shared cache.
	verify(id, goal string) (cached bool, err error)
	finish(res *benchResult)
}

type engineTarget struct {
	eng     *session.Engine
	lv      *live.Service
	mu      sync.Mutex
	retries int64
}

func (t *engineTarget) open(id string, db relation.Instance) error {
	_, err := t.eng.Open(&session.OpenRequest{ID: id, Model: benchModel, DB: db})
	return err
}

func (t *engineTarget) step(id string, in relation.Instance) error {
	_, err := t.eng.Input(id, in)
	return err
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

// withRetry retries 429 (shard overloaded or rate-limited) and 503
// (handoff freeze) with backoff; other failures are final.
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

func (t *httpTarget) open(id string, db relation.Instance) error {
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions", &session.OpenRequest{ID: id, Model: benchModel, DB: db}, nil)
	})
}

func (t *httpTarget) step(id string, in relation.Instance) error {
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions/"+id+"/input", map[string]any{"input": in}, nil)
	})
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

// stepPrepared sends one multi-session /batch envelope that
// runLoadBatched encoded before the clock started, so the timed loop
// gauges the server's wire rather than the driver's JSON encoder. It asks
// for sparse acks (results=errors): an all-OK envelope answers with a
// constant-size body, so the wire measures batching, not response
// encoding. The envelope travels under withRetry like any other post;
// shedding inside it stays per item — only the 429/503 items are
// re-encoded and resent, after a backoff.
func (t *httpTarget) stepPrepared(body []byte, items []session.BatchItem) error {
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			t.noteRetry()
			time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
			var err error
			if body, err = json.Marshal(session.BatchRequest{Steps: items, Results: "errors"}); err != nil {
				return err
			}
		}
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
		items = again
	}
	return fmt.Errorf("batch: %d items still shedding after retries", len(items))
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

// benchModel is the model every bench session runs: the SHORT shopping loop
// of Figure 1, scripted by shopScript.
const benchModel = "short"

func bench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		nSessions = fs.Int("sessions", 1000, "concurrent sessions to drive")
		nSteps    = fs.Int("steps", 30, "steps per session")
		url       = fs.String("url", "", "drive load over HTTP against this base URL (a spocus-server or spocus-router) instead of in-process")
		batch     = fs.Int("batch", 1, "with -url: sessions per pipelined batch request; groups of this many sessions advance in lockstep through POST /batch (1: the single-step path)")
		verifyMix = fs.Float64("verify-mix", 0, "fraction of steps followed by a live verify query (e.g. 0.1: one query per 10 steps)")

		scenarios        = fs.String("scenarios", "", "run a scenario fleet instead of the single-model bench: 'builtin' or a JSON fleet file; each scenario runs in-process AND through an in-process router over loopback TCP (see internal/scenario)")
		scenarioBackends = fs.Int("scenario-backends", 2, "backends behind the router in the -scenarios router path")

		replication   = fs.Bool("replication", false, "measure the replication plane: the -fsync always workload with and without a live follower streaming every shard, plus promotion-vs-replay timings at -promote-steps")
		promoteSteps  = fs.Int("promote-steps", 1000, "session size for the -replication promotion-vs-replay comparison")
		promoteRounds = fs.Int("promote-rounds", 3, "rounds per mode in the -replication promotion comparison")
	)
	build := engineFlags(fs, "never")
	fs.Parse(args)

	if *batch > 1 && *url == "" {
		fatal(fmt.Errorf("bench: -batch needs -url"))
	}
	if *url != "" {
		target := &httpTarget{
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
		script, db := shopScript()
		if *batch > 1 {
			emit(runLoadBatched(target, script, db, *nSessions, *nSteps, *verifyMix, *batch))
		} else {
			emit(runLoad(target, script, db, *nSessions, *nSteps, *verifyMix))
		}
		return
	}

	cfg, err := build()
	if err != nil {
		fatal(err)
	}
	switch {
	case *scenarios != "":
		benchScenarios(cfg, *scenarios, *scenarioBackends)
	case *replication:
		benchReplication(cfg, *nSessions, *nSteps, *promoteSteps, *promoteRounds)
	default:
		eng, err := session.NewEngine(cfg)
		if err != nil {
			fatal(err)
		}
		// Queue sized to the offered load: the bench measures goodput, so
		// in-process it queues rather than sheds (the 429 shed path is
		// exercised by the live-plane tests and the HTTP mode).
		target := &engineTarget{eng: eng, lv: live.New(live.Config{Queue: *nSessions})}
		script, db := shopScript()
		res := runLoad(target, script, db, *nSessions, *nSteps, *verifyMix)
		res.Fsync = cfg.Fsync.String()
		res.Durable = cfg.Dir != ""
		emit(res)
	}
}

func openAll(target benchTarget, db relation.Instance, nSessions int) ([]string, time.Duration) {
	openStart := time.Now()
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%06d", i)
		if err := target.open(ids[i], db); err != nil {
			fatal(err)
		}
	}
	return ids, time.Since(openStart)
}

// finishLoad folds the collected latencies into the report shape shared by
// the single-step and batched drivers (target.finish also shuts the target
// down, so call it exactly once).
func finishLoad(target benchTarget, nSessions, nSteps int, all []time.Duration, elapsed, openElapsed time.Duration) benchResult {
	res := benchResult{
		Model:        benchModel,
		Sessions:     nSessions,
		StepsPerSess: nSteps,
		StepsTotal:   len(all),
		ElapsedSec:   elapsed.Seconds(),
		StepsPerSec:  float64(len(all)) / elapsed.Seconds(),
		OpenSec:      openElapsed.Seconds(),
	}
	target.finish(&res)
	res.Latency = latPercentiles(all)
	return res
}

// runLoadBatched is runLoad with pipelined batching over HTTP: groups of
// batch sessions advance in lockstep, one routed /batch round trip per
// round acking one step of each.
func runLoadBatched(target *httpTarget, script func(int, int) relation.Instance, db relation.Instance, nSessions, nSteps int, verifyMix float64, batch int) benchResult {
	if verifyMix > 0 {
		fatal(fmt.Errorf("bench: -batch and -verify-mix are mutually exclusive"))
	}
	ids, openElapsed := openAll(target, db, nSessions)

	nGroups := (nSessions + batch - 1) / batch

	// Pre-build every round's items and encoded envelope before the clock
	// starts: the timed region then measures the wire and the engine, not
	// the driver's input generation (load generators pre-build request
	// bodies for the same reason).
	rounds := make([][][]session.BatchItem, nGroups) // [group][round] pre-built items
	bodies := make([][][]byte, nGroups)              // [group][round] pre-encoded envelopes
	for g := 0; g < nGroups; g++ {
		lo, hi := g*batch, min((g+1)*batch, nSessions)
		rounds[g] = make([][]session.BatchItem, nSteps)
		bodies[g] = make([][]byte, nSteps)
		for j := 0; j < nSteps; j++ {
			items := make([]session.BatchItem, hi-lo)
			for i := lo; i < hi; i++ {
				items[i-lo] = session.BatchItem{Session: ids[i], Input: script(i, j)}
			}
			body, err := json.Marshal(session.BatchRequest{Steps: items, Results: "errors"})
			if err != nil {
				fatal(err)
			}
			rounds[g][j], bodies[g][j] = items, body
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
			for j := 0; j < nSteps; j++ {
				t0 := time.Now()
				if err := target.stepPrepared(bodies[g][j], rounds[g][j]); err != nil {
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
	res := finishLoad(target, nSessions, nSteps, all, elapsed, openElapsed)
	res.Batch = batch
	acks := latPercentiles(allAcks)
	res.BatchAck = &acks
	return res
}

// runLoad opens nSessions sessions on target and drives each through
// nSteps scripted steps concurrently, returning the throughput/latency
// report (target.finish folds in target-side stats and shuts it down).
func runLoad(target benchTarget, script func(int, int) relation.Instance, db relation.Instance, nSessions, nSteps int, verifyMix float64) benchResult {
	// Open all sessions first so the timed region measures pure stepping.
	ids, openElapsed := openAll(target, db, nSessions)

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
	res := finishLoad(target, nSessions, nSteps, all, elapsed, openElapsed)

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
		for _, ds := range [][]time.Duration{vall, cold, hit} {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		}
		res.VerifyMix = verifyMix
		res.VerifyTotal = len(vall)
		res.VerifyCached = len(hit)
		if len(vall) > 0 {
			res.VerifyHitRate = float64(len(hit)) / float64(len(vall))
			res.VerifyLatency = &verifySplits{
				P50Micros:     percentile(vall, 0.50),
				P99Micros:     percentile(vall, 0.99),
				ColdP50Micros: percentile(cold, 0.50),
				ColdP99Micros: percentile(cold, 0.99),
				HitP50Micros:  percentile(hit, 0.50),
				HitP99Micros:  percentile(hit, 0.99),
				MaxMicros:     percentile(vall, 1.0),
			}
		}
	}

	return res
}

// latQuantiles is the shared latency report shape.
type latQuantiles struct {
	P50Micros float64 `json:"p50_us"`
	P90Micros float64 `json:"p90_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`
}

// latPercentiles sorts the samples and folds them into the shared report
// shape.
func latPercentiles(all []time.Duration) latQuantiles {
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return latQuantiles{
		P50Micros: percentile(all, 0.50),
		P90Micros: percentile(all, 0.90),
		P99Micros: percentile(all, 0.99),
		MaxMicros: percentile(all, 1.0),
	}
}

// percentile reads quantile q of sorted samples, in microseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func emit(v any) {
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	if err := out.Encode(v); err != nil {
		fatal(err)
	}
}

// shopScript returns the per-session input script and a database sized for
// it. Scripts are deterministic in (session index, step index) so repeated
// bench runs are comparable.
func shopScript() (func(i, j int) relation.Instance, relation.Instance) {
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
	return func(i, j int) relation.Instance {
		p := (i + j/2) % nProducts
		in := relation.NewInstance()
		if j%2 == 0 {
			in.Add("order", relation.Tuple{relation.Const(products[p])})
		} else {
			in.Add("pay", relation.Tuple{relation.Const(products[p]), relation.Const(prices[p])})
		}
		return in
	}, db
}
