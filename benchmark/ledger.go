package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// The traced run. End-to-end metrics come from runs with tracing off; here
// the workload runs at a quarter of its step count twice — once untraced,
// for the counters and for the baseline tracing is compared against, and
// once traced — and then the layer probes run. The ledger states, per
// step, where the client's time went: layers above the lowest spanned
// boundary by span self time, layers below it by probe cost on the blocking
// path, and the rest as unattributed, charged to the enclosing layer.

// tracedScale is the share of the full step count the traced run drives.
const tracedScale = 0.25

// calls aggregates the client calls of one kind seen in the timed region.
type calls struct {
	n      int
	items  int
	client int64 // Σ client span
	// Blocking-path decomposition of the client span (cluster_http):
	wireSelf   int64 // client span − router handler span
	routerSelf int64 // router handler span − union of its upstream spans
	upSelf     int64 // union of upstream spans − union of backend handler spans
	backend    int64 // union of backend handler spans
	backendSum int64 // Σ backend handler spans (serial basis)
	upstreams  int
	durs       []float64 // client span durations, µs
	upDurs     []float64 // upstream span durations, µs
}

// analyse folds the spans whose client call started inside the timed
// region [from, to] into per-kind call aggregates, keyed by the client
// span's name.
func analyse(spans []span, from, to int64) map[string]*calls {
	tr := buildTree(spans)
	out := map[string]*calls{}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 || s.start < from || s.start > to || s.end < s.start {
			continue
		}
		c := out[s.name]
		if c == nil {
			c = &calls{}
			out[s.name] = c
		}
		id := int32(i + 1)
		c.n++
		c.items += int(s.items)
		dur := s.end - s.start
		c.client += dur
		c.durs = append(c.durs, float64(dur)/1e3)
		routers := tr.children[id]
		if len(routers) == 0 {
			continue
		}
		covered := tr.covered(id)
		c.wireSelf += dur - covered
		var ups, backs []interval
		for _, r := range routers {
			c.routerSelf += tr.self(r)
			for _, u := range tr.children[r] {
				us := &spans[u-1]
				ups = append(ups, interval{us.start, us.end})
				c.upstreams++
				c.upDurs = append(c.upDurs, float64(us.end-us.start)/1e3)
				for _, b := range tr.children[u] {
					bs := &spans[b-1]
					// The backend's middleware closes its span after the
					// response has left; clip it to the round trip.
					hi := bs.end
					if hi > us.end {
						hi = us.end
					}
					if hi > bs.start {
						backs = append(backs, interval{bs.start, hi})
						c.backendSum += hi - bs.start
					}
				}
			}
		}
		up, back := union(ups), union(backs)
		c.upSelf += up - back
		c.backend += back
	}
	return out
}

// row is one ledger line.
type row struct {
	layer  string
	us     float64 // µs per acknowledged step on the client's blocking path
	source string  // "span" | "probe" | "rest"
}

// ledger is one workload's decomposition of the client span per step.
type ledger struct {
	rows  []row
	total float64 // client span per step, µs
	rest  float64 // unattributed, before clamping
}

func (l *ledger) add(layer string, us float64, source string) {
	if us != 0 && !math.IsNaN(us) {
		l.rows = append(l.rows, row{layer, us, source})
	}
}

func (l *ledger) print(out io.Writer, w string) {
	fmt.Fprintf(out, "%s — ledger, µs of client time per acknowledged step (traced run, %s of the step count)\n", w, fmtVal(tracedScale))
	for _, r := range l.rows {
		fmt.Fprintf(out, "  %-46s %10.3f us  %5.1f%%  %s\n", r.layer, r.us, 100*r.us/l.total, r.source)
	}
	fmt.Fprintf(out, "  %-46s %10.3f us  100.0%%\n", "client span", l.total)
}

// build assembles the ledger and sets the span- and probe-derived metrics.
func (rep *report) build(f *fixture, m *measurement, pr *probes, cs map[string]*calls, exec, decode int, snapUSPerByte float64) *ledger {
	steps := float64(m.steps)
	l := &ledger{}
	// Named probe metrics are medians; ledger rows multiply counts by
	// means, because a ledger has to add up.
	setMed := func(name string, xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		rep.set(name, median(xs), len(xs))
		return mean(xs)
	}

	raEval := setMed("ra.eval_us", pr.raEval)
	coreStep := setMed("core.step_us", pr.coreStep)
	coreSelf := math.Max(0, coreStep-raEval)
	rep.set("core.self_us", math.Max(0, median(pr.coreStep)-median(pr.raEval)), len(pr.coreStep))
	rep.set("ra.compile_ms", pr.compileMS, pr.compiled)
	if f.w.name == "deep_state" && len(pr.early) > 0 && len(pr.late) > 0 {
		rep.set("core.step_depth_ratio", median(pr.late)/median(pr.early), len(pr.late))
	}
	jsonDec := setMed("relation.json_decode_us", pr.jsonDec)
	jsonEnc := setMed("relation.json_encode_us", pr.jsonEnc)
	codecEnc := setMed("codec.encode_us_per_step", pr.codecEnc)
	setMed("codec.decode_us_per_step", pr.codecDec)
	setMed("codec.bytes_per_step", pr.codecLen)
	appendUS := setMed("storage.append_us", pr.appendUS)
	commitUS := setMed("storage.commit_us", pr.commitUS)
	setMed("verify.reach_ms", pr.reachMS)

	var total int64
	for _, c := range cs {
		total += c.client
	}
	l.total = float64(total) / 1e3 / steps
	perStep := func(ns int64) float64 { return float64(ns) / 1e3 / steps }

	var lowest float64 // the lowest spanned layer's time per step
	if f.cl != nil {
		var all calls
		for _, name := range []string{"client.step", "client.batch"} {
			if c := cs[name]; c != nil {
				all.wireSelf += c.wireSelf
				all.routerSelf += c.routerSelf
				all.upSelf += c.upSelf
				all.backend += c.backend
				all.durs = append(all.durs, c.durs...)
				all.upDurs = append(all.upDurs, c.upDurs...)
			}
		}
		l.add("wire: client <-> router", perStep(all.wireSelf), "span")
		l.add("cluster: router split / merge", perStep(all.routerSelf), "span")
		l.add("wire: router <-> backend", perStep(all.upSelf), "span")
		lowest = perStep(all.backend)
		setMed("wire.client_rtt_us", all.durs)
		setMed("wire.upstream_rtt_us", all.upDurs)
		rep.set("wire.self_us_per_step", perStep(all.wireSelf), m.steps)
		rep.set("cluster.router_self_us_per_step", perStep(all.routerSelf), m.steps)
		if b := cs["client.batch"]; b != nil && b.n > 0 {
			rep.set("cluster.subbatches_per_envelope", float64(b.upstreams)/float64(b.n), b.n)
		}
		// Serial basis: what the handlers spent per item against what the
		// engine alone spends on the same items.
		var handler, items float64
		for _, c := range cs {
			handler += float64(c.backendSum)
			items += float64(c.items)
		}
		engine := float64(pr.engBatchNS+pr.engStepNS) / float64(pr.engBatchItems+pr.engSteps)
		if items > 0 && !math.IsNaN(engine) {
			rep.set("session.http_self_us_per_step", math.Max(0, handler/items-engine)/1e3, int(items))
		}
		nSingles := 0
		if c := cs["client.step"]; c != nil {
			nSingles = c.n
		}
		l.add("relation: JSON decode", float64(decode)*jsonDec/steps, "probe")
		l.add("relation: JSON encode (single results)", float64(nSingles)*jsonEnc/steps, "probe")
	} else {
		var stepCalls int
		for name, c := range cs {
			switch name {
			case "session.Input", "session.InputBatch":
				lowest += perStep(c.client)
				stepCalls += c.n
			case "session.Log":
				l.add("session: log reads", perStep(c.client), "span")
			case "session.Peek":
				l.add("session: peek", perStep(c.client), "span")
			case "live.Goal":
				l.add("live: goal (cache, singleflight, solver)", perStep(c.client), "span")
			}
		}
		if f.w.durable {
			l.add("codec: encode", float64(exec)*codecEnc/steps, "probe")
			l.add("storage: append", float64(exec)*appendUS/steps, "probe")
			if f.w.syncs { // every step call waits for one group commit
				l.add("storage: commit (fsync)", float64(stepCalls)*commitUS/steps, "probe")
			}
			snapBytes := float64(m.after.eng.SnapshotBytesTotal - m.before.eng.SnapshotBytesTotal)
			l.add("storage: snapshots", snapBytes*snapUSPerByte/steps, "probe")
		}
		if c := cs["session.Input"]; c != nil && c.n > 0 {
			self := median(c.durs) - median(pr.coreStep)
			if f.w.durable {
				self -= median(pr.codecEnc) + median(pr.appendUS)
				if f.w.syncs {
					self -= median(pr.commitUS)
				}
			}
			rep.set("session.self_us", math.Max(0, self), c.n)
		}
	}
	l.add("ra: plan evaluation", float64(exec)*raEval/steps, "probe")
	l.add("core: state merge, log delta", float64(exec)*coreSelf/steps, "probe")

	// Whatever the probes do not explain of the lowest spanned layer is
	// unattributed, and charged to the layer that encloses it.
	var explained float64
	for _, r := range l.rows {
		if r.source == "probe" {
			explained += r.us
		}
	}
	l.rest = lowest - explained
	name := "session: mailbox, admission, bookkeeping"
	if f.cl != nil {
		name = "session: HTTP handler, mailbox, bookkeeping"
	}
	l.add(name+" (unattributed)", math.Max(0, l.rest), "rest")
	if l.rest < 0 {
		l.add("(probes in isolation exceed the span by)", -l.rest, "rest")
	}
	rep.set("trace.unattributed_share", math.Max(0, l.rest)/l.total, m.steps)
	return l
}

// runTraced is --trace 1: the quarter-size untraced and traced passes, the
// probes, the ledger, and the per-layer result line.
func runTraced(out io.Writer, w *workloadDef, p params) (*outcome, error) {
	p.scale *= tracedScale

	// Untraced pass: counters, the quarter-size headline, the baseline.
	res, err := untraced(out, w, p, 1)
	if err != nil {
		return nil, err
	}
	rep := res.rep
	base, _ := rep.get("steps_per_s")

	// Traced pass: same seed, same size, spans on.
	sessions, stepsPer := w.size(p)
	tr := newTracer(8*(sessions*stepsPer+sessions) + 1024)
	f, err := setUp(w, p, tr)
	if err != nil {
		return nil, err
	}
	defer f.tearDown()
	tm := f.measure()
	if f.w.durable {
		// The recovery boundary is spanned too (session.NewEngine); its
		// figures were taken untraced above.
		f.check()
	}
	res.attempted += f.attempted
	res.failed += f.failed
	f.complain(out)
	if d := tr.dropped.Load(); d > 0 {
		return nil, fmt.Errorf("tracer arena too small: %d spans dropped", d)
	}
	traced := float64(tm.steps) / tm.wall.Seconds()
	rep.set("trace.overhead_share", math.Max(0, 1-traced/base), tm.steps)

	exec, decode, err := f.blocking()
	if err != nil {
		return nil, err
	}
	pr, err := runProbes(f)
	if err != nil {
		return nil, err
	}
	if f.cl != nil {
		if err := pr.engineReplay(f); err != nil {
			return nil, err
		}
	}
	from := int64(tm.start.Sub(tr.epoch))
	to := from + int64(tm.wall)
	spans := tr.recorded()
	l := rep.build(f, tm, pr, analyse(spans, from, to), exec, decode, res.snapUSPerByte)

	rep.print(out, fmt.Sprintf("end-to-end at %s of the step count, tracing off", fmtVal(tracedScale)),
		endToEnd)
	rep.print(out, "per-layer", layers)
	l.print(out, w.name)
	fmt.Fprintf(out, "  traced %.0f steps/s against %.0f untraced; %d spans; probes replayed %d sessions\n",
		traced, base, len(spans), probeSessions)
	fmt.Fprintln(out, strings.Repeat("-", 72))
	res.line, err = rep.line(perLayer, res.attempted, res.failed)
	return res, err
}
