package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/replica"
	"repro/internal/session"
	"repro/internal/wire"
)

// bench -replication measures the replication plane's two prices, both of
// which the acceptance criteria bound:
//
//   - Steady-state streaming cost: the same -fsync always workload run
//     with and without a consumer tailing every shard's WAL stream. The
//     "on" consumer drains the real feed — long-polls gated on group
//     commit, segment reads, batch encoding, ack bookkeeping — so the
//     primary pays everything it would pay to feed a follower; the
//     follower's own apply work, which in a deployment runs on another
//     backend's CPU, is excluded. A third run with a full colocated
//     standby (fetch AND apply in-process) is reported separately: on a
//     small host it mostly measures running two engines on one CPU, which
//     is why it is not the acceptance number.
//
//   - Promotion vs replay at a fixed session size: a session is driven to
//     -promote-steps, the standby catches up, and promotion into a fresh
//     serving engine is timed against replay-rebuild — re-stepping the
//     same session's whole input history on another fresh engine, timed in
//     the same round. Promotion is O(state) — export one image, install
//     it — while replay-rebuild is the O(steps) baseline, which is the
//     whole argument for warm followers.
//
// The committed BENCH_replication.json is this subcommand's output.

// replStreamingReport is the streaming-cost half of the report.
type replStreamingReport struct {
	Off benchResult `json:"off"` // -fsync always, nobody streaming (median round)
	On  benchResult `json:"on"`  // same, with every shard's WAL stream drained (median round)
	// Per-round steps/s for both modes: the runs alternate off/on so disk
	// and scheduler drift hits both alike, and the cost is computed on
	// medians — single fsync-bound runs vary by >10% on their own.
	OffSamples []float64 `json:"off_steps_per_sec_samples"`
	OnSamples  []float64 `json:"on_steps_per_sec_samples"`
	// CostFrac is the relative steps/s lost to feeding the stream:
	// (median off - median on) / median off. The acceptance bound is 0.10.
	CostFrac float64 `json:"steps_per_sec_cost_frac"`
	// StreamedRecords counts WAL records the drain consumer received.
	StreamedRecords int64 `json:"streamed_records"`
	// Colocated is the workload with a full warm standby — fetch and
	// idempotent apply — sharing the process. Its cost is dominated by the
	// standby's own transducer work, so it bounds what colocating primary
	// and follower on one host costs, not what streaming costs.
	Colocated         benchResult `json:"colocated_standby"`
	ColocatedCostFrac float64     `json:"colocated_cost_frac"`
	ColocatedLag      int64       `json:"colocated_final_lag_records"`
}

// replPromotionReport is the promotion-vs-replay half.
type replPromotionReport struct {
	Steps   int             `json:"steps"`
	Timings []handoffTiming `json:"timings"` // modes: promote, replay-rebuild
	// PromoteVsReplayFrac is promote mean over replay-rebuild mean, both
	// timed in this run; the acceptance bound is 0.25.
	PromoteVsReplayFrac float64 `json:"promote_vs_replay_frac"`
}

// handoffTiming is one operation's timings in the promotion report.
type handoffTiming struct {
	Mode      string    `json:"mode"`
	Rounds    int       `json:"rounds"`
	MeanMs    float64   `json:"mean_ms"`
	MinMs     float64   `json:"min_ms"`
	MaxMs     float64   `json:"max_ms"`
	SamplesMs []float64 `json:"samples_ms"`
}

// serveEngine exposes eng over loopback HTTP, returning its base URL and a
// closer — the stand-in for a primary's or a scenario backend's listener.
func serveEngine(eng *session.Engine) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: session.Handler(eng)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// drainStream tails every shard's WAL stream the way a follower does —
// long-poll, advance from=, ack the last applied LSN, send back the epoch
// and the last LSN received as its decoder position — and discards the
// frames. The returned stop function waits the tailers out and reports how
// many records were received for applying.
func drainStream(base string, shards int) (stop func() int64) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var n atomic.Int64
	client := wire.New(wire.Config{Name: "bench-repl-drain", Timeout: 15 * time.Second})
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			from, acked := int64(1), int64(0)
			var epoch uint64
			var decoded int64
			for ctx.Err() == nil {
				u := fmt.Sprintf("%s/admin/wal/stream?shard=%d&from=%d&acked=%d&epoch=%d&decoded=%d&wait=1s",
					base, shard, from, acked, epoch, decoded)
				var b session.WALBatch
				if err := client.GetJSON(ctx, u, &b); err != nil {
					sleepCtx(ctx, 50*time.Millisecond)
					continue
				}
				if b.Reset {
					from, acked = b.Base+1, b.Base
					epoch, decoded = 0, 0
					n.Add(int64(len(b.Snapshot)))
					continue
				}
				if len(b.Frames) > 0 {
					last := b.Frames[len(b.Frames)-1].LSN
					epoch, decoded = b.Epoch, last
					if last >= b.From {
						n.Add(last - max(b.From, b.Frames[0].LSN) + 1)
						from, acked = last+1, last
					}
				}
			}
		}(s)
	}
	return func() int64 {
		cancel()
		wg.Wait()
		client.Close()
		return n.Load()
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// attachStandby starts a warm standby tailing base, applying into its own
// engine. The standby runs FsyncNever: its durability source is the
// primary's WAL, which it can re-stream from any LSN after a crash, so
// fsyncing its own copy buys nothing (and on a shared disk would contend
// with the primary's group commits).
func attachStandby(base string, shards int) (*replica.Follower, func(), error) {
	fdir, err := os.MkdirTemp("", "spocus-repl-standby-*")
	if err != nil {
		return nil, nil, err
	}
	fol, err := replica.New(replica.Config{
		Primary: base,
		Dir:     fdir,
		Shards:  shards,
		Fsync:   session.FsyncNever,
	})
	if err != nil {
		os.RemoveAll(fdir)
		return nil, nil, err
	}
	fol.Start()
	return fol, func() {
		fol.Stop()
		os.RemoveAll(fdir)
	}, nil
}

func benchReplication(cfg session.Config, nSessions, nSteps, promoteSteps, rounds int) {
	script, db := shopScript()
	const (
		streamOff = iota
		streamDrain
		streamStandby
	)
	// runOnce drives the workload against a fresh durable engine with the
	// chosen stream consumer attached; extra is streamed records (drain)
	// or final follower lag (standby).
	runOnce := func(mode int) (res benchResult, extra int64) {
		dir, err := os.MkdirTemp("", "spocus-repl-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		cc := cfg
		cc.Dir, cc.Fsync = dir, session.FsyncAlways
		eng, err := session.NewEngine(cc)
		if err != nil {
			fatal(err)
		}
		var teardown []func()
		var stop func() int64
		var fol *replica.Follower
		if mode != streamOff {
			base, closeSrv, err := serveEngine(eng)
			if err != nil {
				fatal(err)
			}
			teardown = append(teardown, closeSrv)
			switch mode {
			case streamDrain:
				stop = drainStream(base, eng.Shards())
			case streamStandby:
				var stopFol func()
				if fol, stopFol, err = attachStandby(base, eng.Shards()); err != nil {
					fatal(err)
				}
				teardown = append(teardown, stopFol)
			}
		}
		res = runLoad(&engineTarget{eng: eng, lv: live.New(live.Config{Queue: nSessions})}, script, db, nSessions, nSteps, 0)
		res.Fsync, res.Durable = "always", true
		if stop != nil {
			extra = stop()
		}
		if fol != nil {
			extra, _ = fol.Lag()
		}
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
		return res, extra
	}

	const streamRounds = 3
	var offRuns, onRuns []benchResult
	var streamed int64
	for r := 0; r < streamRounds; r++ {
		o, _ := runOnce(streamOff)
		offRuns = append(offRuns, o)
		n, s := runOnce(streamDrain)
		onRuns = append(onRuns, n)
		streamed += s
	}
	medianRun := func(runs []benchResult) (benchResult, []float64) {
		sorted := append([]benchResult(nil), runs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].StepsPerSec < sorted[j].StepsPerSec })
		samples := make([]float64, len(runs))
		for i, r := range runs {
			samples[i] = r.StepsPerSec
		}
		return sorted[len(sorted)/2], samples
	}
	off, offSamples := medianRun(offRuns)
	on, onSamples := medianRun(onRuns)
	colo, lag := runOnce(streamStandby)
	streaming := replStreamingReport{
		Off:               off,
		On:                on,
		OffSamples:        offSamples,
		OnSamples:         onSamples,
		CostFrac:          (off.StepsPerSec - on.StepsPerSec) / off.StepsPerSec,
		StreamedRecords:   streamed,
		Colocated:         colo,
		ColocatedCostFrac: (off.StepsPerSec - colo.StepsPerSec) / off.StepsPerSec,
		ColocatedLag:      lag,
	}

	promote := replPromotionReport{Steps: promoteSteps}
	pt := handoffTiming{Mode: "promote", Rounds: rounds, MinMs: math.Inf(1)}
	rt := handoffTiming{Mode: "replay-rebuild", Rounds: rounds, MinMs: math.Inf(1)}
	const id = "promote-bench"
	for r := 0; r < rounds; r++ {
		var dirs []string
		tmp := func() string {
			d, err := os.MkdirTemp("", "spocus-promote-*")
			if err != nil {
				fatal(err)
			}
			dirs = append(dirs, d)
			return d
		}
		cc := cfg
		cc.Dir, cc.Fsync = tmp(), session.FsyncAlways
		prim, err := session.NewEngine(cc)
		if err != nil {
			fatal(err)
		}
		base, closeSrv, err := serveEngine(prim)
		if err != nil {
			fatal(err)
		}
		fol, stopFol, err := attachStandby(base, prim.Shards())
		if err != nil {
			fatal(err)
		}
		if _, err := prim.Open(&session.OpenRequest{ID: id, Model: benchModel, DB: db}); err != nil {
			fatal(err)
		}
		for j := 0; j < promoteSteps; j++ {
			if _, err := prim.Input(id, script(0, j)); err != nil {
				fatal(fmt.Errorf("step %d: %w", j+1, err))
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if info, err := fol.Engine().Info(id); err == nil && info.Steps == promoteSteps {
				break
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("standby never caught up to %d steps", promoteSteps))
			}
			time.Sleep(2 * time.Millisecond)
		}

		dc := cfg
		dc.Dir, dc.Fsync = tmp(), session.FsyncAlways
		dst, err := session.NewEngine(dc)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		pr, err := fol.Promote(dst)
		promoteMs := float64(time.Since(t0)) / 1e6
		if err != nil || len(pr.Sessions) != 1 {
			fatal(fmt.Errorf("promotion came back %+v: %v", pr, err))
		}
		if lr, err := dst.Log(id); err != nil || lr.Steps != promoteSteps {
			fatal(fmt.Errorf("promoted session has %v steps (err %v), want %d", lr, err, promoteSteps))
		}

		rc := cfg
		rc.Dir, rc.Fsync = tmp(), session.FsyncAlways
		reng, err := session.NewEngine(rc)
		if err != nil {
			fatal(err)
		}
		t1 := time.Now()
		if _, err := reng.Open(&session.OpenRequest{ID: id, Model: benchModel, DB: db}); err != nil {
			fatal(err)
		}
		for j := 0; j < promoteSteps; j++ {
			if _, err := reng.Input(id, script(0, j)); err != nil {
				fatal(fmt.Errorf("replay step %d: %w", j+1, err))
			}
		}
		replayMs := float64(time.Since(t1)) / 1e6

		pt.SamplesMs = append(pt.SamplesMs, promoteMs)
		pt.MeanMs += promoteMs / float64(rounds)
		pt.MinMs, pt.MaxMs = math.Min(pt.MinMs, promoteMs), math.Max(pt.MaxMs, promoteMs)
		rt.SamplesMs = append(rt.SamplesMs, replayMs)
		rt.MeanMs += replayMs / float64(rounds)
		rt.MinMs, rt.MaxMs = math.Min(rt.MinMs, replayMs), math.Max(rt.MaxMs, replayMs)

		stopFol()
		closeSrv()
		prim.Shutdown()
		dst.Shutdown()
		reng.Shutdown()
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	promote.Timings = []handoffTiming{pt, rt}
	promote.PromoteVsReplayFrac = pt.MeanMs / rt.MeanMs

	emit(struct {
		Streaming replStreamingReport `json:"streaming"`
		Promotion replPromotionReport `json:"promotion"`
	}{streaming, promote})
}
