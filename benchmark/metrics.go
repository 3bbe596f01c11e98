package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one metric. BENCHMARK.json repeats the names, units,
// directions and bounds; the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // gated metrics only: share of the parent's median
}

// gated are the end-to-end metrics every workload reports and the driver
// gates. The driver refuses a benchmark whose spread over ten seeds exceeds
// the bound and caps the bound at 25 %; on the box this was built on the
// timing metrics spread 5–20 % (results/repeatability.txt), so their bounds
// are that cap, not the 10 % the issue proposed. The other end-to-end
// metrics apply to some workloads only, or spread wider still; they keep
// their names and head perLayer (see README).
var gated = []metricDef{
	{"steps_per_s", "1/s", "higher", 0.25},   // acknowledged steps per second over the timed region
	{"cpu_us_per_step", "us", "lower", 0.25}, // process user+sys CPU over the timed region per acknowledged step, load generator included
	{"live_heap_mb", "MB", "lower", 0.10},    // HeapAlloc after a forced GC at the end of the timed region
	{"setup_s", "s", "lower", 0.25},          // fixture build, session opens, pre-encoding and warm-up (median of 3 set-ups)
}

// ungated are the end-to-end metrics that only some workloads have (the
// driver wants every gated metric from every workload, never 0), or that do
// not repeat on a shared 2-core box (median acks spread 7–20 % over ten
// seeds; tails more). BENCHMARK.json lists them at the head of per_layer.
var ungated = []metricDef{
	{"step_ack_p50_us", "us", "lower", 0},      // client-observed ack latency of a single step, median over the timed region
	{"step_ack_p99_us", "us", "lower", 0},      // single-step ack latency, 99th percentile over the timed region
	{"batch_ack_p50_us", "us", "lower", 0},     // unamortised ack latency of one 64-step batch call, median; durable_batch, cluster_http
	{"batch_ack_p99_us", "us", "lower", 0},     // batch ack latency, 99th percentile over the timed region; durable_batch, cluster_http
	{"failed_share", "share", "lower", 0},      // (errors + refusals + oracle mismatches) / operations attempted
	{"stored_bytes_per_step", "B", "lower", 0}, // (WAL + snapshot bytes written) / acknowledged steps; durable_batch, deep_state
	{"recover_s", "s", "lower", 0},             // NewEngine on the crash image until every log is read back, matched, and one new step acks; durable_batch, deep_state
	{"verify_p50_us", "us", "lower", 0},        // Peek + Goal latency, median; verify_mix
	{"verify_p99_us", "us", "lower", 0},        // Peek + Goal latency, 99th percentile; verify_mix
}

// layers are the per-layer metrics, in ledger order.
var layers = []metricDef{
	{"relation.json_decode_us", "us", "lower", 0}, // decode one step's JSON input (probe); cluster_http
	{"relation.json_encode_us", "us", "lower", 0}, // encode one step's JSON result (probe); cluster_http

	{"ra.eval_us", "us", "lower", 0},                 // output + state Plan.Eval for one step at the workload's state size (probe)
	{"ra.rows_pulled_per_step", "count", "lower", 0}, // iterator rows pulled per acknowledged step (ra.Snapshot delta)
	{"ra.evals_per_step", "count", "lower", 0},       // Plan.Eval calls per acknowledged step (ra.Snapshot delta)
	{"ra.tree_fallbacks", "count", "lower", 0},       // steps served by the tree evaluator; must be 0
	{"ra.compile_ms", "ms", "lower", 0},              // ra.Compile of the workload's models, total (probe)

	{"core.step_us", "us", "lower", 0},             // Machine.Step + LogDelta for one step (probe)
	{"core.self_us", "us", "lower", 0},             // core.step_us - ra.eval_us: state merge and log delta
	{"core.step_depth_ratio", "ratio", "lower", 0}, // core.step_us at final depth / at depth 10; deep_state

	{"codec.encode_us_per_step", "us", "lower", 0}, // encode one step record (probe); durable workloads
	{"codec.decode_us_per_step", "us", "lower", 0}, // decode one step record (probe); durable workloads
	{"codec.bytes_per_step", "B", "lower", 0},      // encoded step record size (probe); durable workloads
	{"codec.intern_entries", "count", "lower", 0},  // engine WAL encoders' intern table entries at end of run

	{"storage.append_us", "us", "lower", 0},              // Store.Append of one step record (probe)
	{"storage.commit_us", "us", "lower", 0},              // one Store.Commit under FsyncAlways (probe)
	{"storage.syncs_per_step", "count", "lower", 0},      // WAL fsyncs per acknowledged step
	{"storage.wal_bytes_per_step", "B", "lower", 0},      // WAL bytes per acknowledged step
	{"storage.snapshot_bytes_per_step", "B", "lower", 0}, // snapshot bytes per acknowledged step
	{"storage.snapshots", "count", "lower", 0},           // snapshots taken in the timed region
	{"storage.snapshot_ms", "ms", "lower", 0},            // explicit Engine.Snapshot() at end of run
	{"storage.replay_ms", "ms", "lower", 0},              // engine-reported replay time of the crash image
	{"storage.replay_records", "count", "lower", 0},      // WAL records replayed from the crash image

	{"session.input_us", "us", "lower", 0},              // Engine.Input call, median
	{"session.batch_us_per_step", "us", "lower", 0},     // Engine.InputBatch call / items, median
	{"session.self_us", "us", "lower", 0},               // Engine.Input call minus the core, codec and storage probes: mailbox hand-off, admission, bookkeeping
	{"session.open_us", "us", "lower", 0},               // one session open, median
	{"session.log_read_us", "us", "lower", 0},           // one full log read, median
	{"session.peek_us", "us", "lower", 0},               // Engine.Peek, median; verify_mix
	{"session.rejected", "count", "lower", 0},           // mailbox-full rejections in the timed region
	{"session.deduped", "count", "lower", 0},            // steps answered from the idempotency table in the timed region
	{"session.http_self_us_per_step", "us", "lower", 0}, // backend handler span minus engine time for the same items, per step; cluster_http

	{"wire.client_rtt_us", "us", "lower", 0},      // client call span, median over batches and singles; cluster_http
	{"wire.upstream_rtt_us", "us", "lower", 0},    // router-to-backend round trip (spanning RoundTripper), median; cluster_http
	{"wire.self_us_per_step", "us", "lower", 0},   // client span minus router handler span, per step; cluster_http
	{"wire.body_bytes_per_step", "B", "lower", 0}, // request + response body bytes at the client per step; cluster_http
	{"wire.conns_dialed", "count", "lower", 0},    // connections dialled by both wire clients
	{"wire.retries", "count", "lower", 0},         // retries by both wire clients

	{"cluster.router_self_us_per_step", "us", "lower", 0},    // router handler span minus the union of its upstream spans, per step
	{"cluster.subbatches_per_envelope", "count", "lower", 0}, // upstream sub-batches per /batch envelope
	{"cluster.backend_skew", "ratio", "lower", 0},            // max / mean steps per backend

	{"live.goal_cold_us", "us", "lower", 0},     // Service.Goal answered by the solver, median; verify_mix
	{"live.goal_hit_us", "us", "lower", 0},      // Service.Goal answered from the cache, median; verify_mix
	{"live.hit_rate", "share", "higher", 0},     // answers served from the cache / queries
	{"live.coalesced", "count", "lower", 0},     // queries that joined an in-flight identical one
	{"live.rejected", "count", "lower", 0},      // queries refused at saturation
	{"live.solver_misses", "count", "lower", 0}, // SAT subproblems solved (solver cache misses)
	{"verify.reach_ms", "ms", "lower", 0},       // verify.ReachGoalFrom on sampled prefixes, cold (probe)

	{"proc.gc_cpu_share", "share", "lower", 0},     // GC CPU / process CPU over the timed region
	{"proc.allocs_per_step", "count", "lower", 0},  // heap objects allocated per acknowledged step
	{"proc.alloc_bytes_per_step", "B", "lower", 0}, // heap bytes allocated per acknowledged step
	{"proc.gc_pause_max_us", "us", "lower", 0},     // longest stop-the-world pause in the timed region

	{"trace.overhead_share", "share", "lower", 0},     // 1 - traced steps_per_s / untraced steps_per_s at the same size
	{"trace.unattributed_share", "share", "lower", 0}, // share of the client span that neither a span nor a probe explains
}

// endToEnd is what a --trace 0 report prints first; perLayer is what the
// --trace 1 result line carries. A metric that does not apply to a workload
// is absent from the printed report. The driver requires the --trace 1 line
// to carry every per_layer name with a number, so there, and only there, an
// inapplicable metric reads 0.
var (
	endToEnd = append(append([]metricDef(nil), gated...), ungated...)
	perLayer = append(append([]metricDef(nil), ungated...), layers...)
)

func defOf(name string) *metricDef {
	for _, list := range [][]metricDef{gated, perLayer} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report is one workload's metrics by name.
type report struct {
	workload string
	values   map[string]value
}

func newReport(w string) *report { return &report{workload: w, values: map[string]value{}} }

// set records a metric; names outside the catalogue are a programming error.
func (r *report) set(name string, v float64, n int) {
	if defOf(name) == nil {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.values[name] = value{v, n}
}

func (r *report) get(name string) (float64, bool) {
	v, ok := r.values[name]
	return v.v, ok
}

// print writes the named section of the report, one metric per line, with
// unit and sample count; metrics the workload does not have are omitted.
func (r *report) print(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "%s — %s\n", r.workload, title)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.bound*100)
		}
		fmt.Fprintf(w, "  %-34s %14s %-6s n=%d%s\n", d.name, fmtVal(v.v), d.unit, v.n, bound)
	}
}

func fmtVal(v float64) string {
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result line over the given catalogue section. Gated
// metrics must be present; ungated ones a workload lacks read 0.
func (r *report) line(defs []metricDef, attempted, failed int) (string, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && d.bound > 0 {
			return "", fmt.Errorf("workload %s did not produce %s", r.workload, d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return "", fmt.Errorf("workload %s: %s is %v", r.workload, d.name, v.v)
		}
		res.Metrics[d.name] = resultValue{Value: v.v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// headline fills the end-to-end metrics of one untraced timed region.
func (r *report) headline(f *fixture, m *measurement, v *verdict) {
	r.set("steps_per_s", float64(m.steps)/m.wall.Seconds(), m.steps)
	r.set("cpu_us_per_step", float64(m.cpu)/1e3/float64(m.steps), m.steps)
	r.set("live_heap_mb", m.heapMB, 1)
	r.set("failed_share", float64(f.failed)/float64(f.attempted), f.attempted)

	step, batch := m.kind(opStep), m.kind(opBatch)
	if us, n, ok := quantile(step, 0.50); ok {
		r.set("step_ack_p50_us", us, n)
	}
	if us, n, ok := quantile(step, 0.99); ok {
		r.set("step_ack_p99_us", us, n)
	}
	if us, n, ok := quantile(batch, 0.50); ok {
		r.set("batch_ack_p50_us", us, n)
	}
	if us, n, ok := quantile(batch, 0.99); ok {
		r.set("batch_ack_p99_us", us, n)
	}
	if f.w.verify {
		ver := m.kind(opVerify)
		if us, n, ok := quantile(ver, 0.50); ok {
			r.set("verify_p50_us", us, n)
		}
		if us, n, ok := quantile(ver, 0.99); ok {
			r.set("verify_p99_us", us, n)
		}
	}
	if f.w.durable && m.steps > 0 {
		d := m.after.eng.WALBytesTotal - m.before.eng.WALBytesTotal + m.after.eng.SnapshotBytesTotal - m.before.eng.SnapshotBytesTotal
		r.set("stored_bytes_per_step", float64(d)/float64(m.steps), m.steps)
	}
	if v != nil && v.recovered {
		r.set("recover_s", v.recoverS, 1)
	}
}

// counted fills the per-layer metrics that come from public counters and
// client-side timings of an untraced timed region.
func (r *report) counted(f *fixture, m *measurement, v *verdict) {
	steps := float64(m.steps)
	if steps == 0 {
		return
	}
	a, b := m.after, m.before
	r.set("ra.rows_pulled_per_step", float64(a.ra.RowsPulled-b.ra.RowsPulled)/steps, m.steps)
	r.set("ra.evals_per_step", float64(a.ra.Evals-b.ra.Evals)/steps, m.steps)
	r.set("ra.tree_fallbacks", float64(a.ra.TreeFallbacks-b.ra.TreeFallbacks), 1)

	r.set("session.open_us", medianDur(f.openDur), len(f.openDur))
	r.set("session.rejected", float64(a.eng.RejectedTotal-b.eng.RejectedTotal), 1)
	r.set("session.deduped", float64(a.eng.DedupedSteps-b.eng.DedupedSteps), 1)
	if v != nil && len(v.logRead) > 0 {
		r.set("session.log_read_us", medianDur(v.logRead), len(v.logRead))
	}
	if us, n, ok := quantile(m.kind(opLog), 0.50); ok {
		r.set("session.log_read_us", us, n)
	}
	if f.cl == nil {
		if us, n, ok := quantile(m.kind(opStep), 0.50); ok {
			r.set("session.input_us", us, n)
		}
		if us, n, ok := quantile(m.kind(opBatch), 0.50); ok {
			r.set("session.batch_us_per_step", us/batchSize, n)
		}
	}

	if f.w.durable {
		r.set("codec.intern_entries", float64(a.eng.CodecInternEntries), 1)
		r.set("storage.syncs_per_step", float64(a.eng.WALSyncs-b.eng.WALSyncs)/steps, m.steps)
		r.set("storage.wal_bytes_per_step", float64(a.eng.WALBytesTotal-b.eng.WALBytesTotal)/steps, m.steps)
		r.set("storage.snapshot_bytes_per_step", float64(a.eng.SnapshotBytesTotal-b.eng.SnapshotBytesTotal)/steps, m.steps)
		r.set("storage.snapshots", float64(a.eng.Snapshots-b.eng.Snapshots), 1)
		if v != nil && v.recovered {
			r.set("storage.snapshot_ms", v.snapshotMS, 1)
			r.set("storage.replay_ms", v.replayMS, 1)
			r.set("storage.replay_records", float64(v.replayRecs), 1)
		}
	}

	if f.cl != nil {
		var bytes int64
		for _, run := range m.runs {
			bytes += run.bytes
		}
		r.set("wire.body_bytes_per_step", float64(bytes)/steps, m.steps)
		r.set("wire.conns_dialed", float64(a.dials), 1)
		r.set("wire.retries", float64(a.retries-b.retries), 1)
		var max, sum float64
		for i := range a.perEng {
			d := float64(a.perEng[i] - b.perEng[i])
			sum += d
			max = math.Max(max, d)
		}
		if sum > 0 {
			r.set("cluster.backend_skew", max/(sum/float64(len(a.perEng))), int(sum))
		}
	}

	if f.w.verify {
		q := float64(a.live.Queries - b.live.Queries)
		if q > 0 {
			r.set("live.hit_rate", float64(a.live.CacheHits-b.live.CacheHits)/q, int(q))
		}
		r.set("live.coalesced", float64(a.live.Coalesced-b.live.Coalesced), 1)
		r.set("live.rejected", float64(a.live.Rejected-b.live.Rejected), 1)
		r.set("live.solver_misses", float64(a.live.SolverMisses-b.live.SolverMisses), 1)
		if us, n, ok := quantile(m.pick(func(c *clientRun) *latencies { return &c.peek }), 0.50); ok {
			r.set("session.peek_us", us, n)
		}
		if us, n, ok := quantile(m.pick(func(c *clientRun) *latencies { return &c.cold }), 0.50); ok {
			r.set("live.goal_cold_us", us, n)
		}
		if us, n, ok := quantile(m.pick(func(c *clientRun) *latencies { return &c.hit }), 0.50); ok {
			r.set("live.goal_hit_us", us, n)
		}
	}

	if cpu := a.proc.totalCPU - b.proc.totalCPU; cpu > 0 {
		r.set("proc.gc_cpu_share", (a.proc.gcCPU-b.proc.gcCPU)/cpu, 1)
	}
	r.set("proc.allocs_per_step", float64(a.proc.mallocs-b.proc.mallocs)/steps, m.steps)
	r.set("proc.alloc_bytes_per_step", float64(a.proc.allocBytes-b.proc.allocBytes)/steps, m.steps)
	r.set("proc.gc_pause_max_us", a.proc.maxPauseSince(b.proc), int(a.proc.numGC-b.proc.numGC))
}
