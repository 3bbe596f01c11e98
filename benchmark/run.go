package main

import (
	"runtime"
	"time"

	"repro/internal/live"
	"repro/internal/ra"
	"repro/internal/session"
	"repro/internal/wire"
)

// counters are the public counters of every layer at one instant.
type counters struct {
	proc     procSnap
	ra       ra.Stats
	eng      session.Stats // summed over the fixture's engines
	perEng   []int64       // steps_total per engine (backend skew)
	dials    int64
	retries  int64
	requests int64
	live     live.Stats
}

func (f *fixture) engines() []*session.Engine {
	if f.cl != nil {
		return f.cl.backends
	}
	return []*session.Engine{f.eng}
}

func (f *fixture) counters() counters {
	c := counters{proc: readProc(), ra: ra.Snapshot()}
	for _, e := range f.engines() {
		st := e.Stats()
		c.perEng = append(c.perEng, st.StepsTotal)
		c.eng.StepsTotal += st.StepsTotal
		c.eng.WALSyncs += st.WALSyncs
		c.eng.WALAppends += st.WALAppends
		c.eng.Snapshots += st.Snapshots
		c.eng.RejectedTotal += st.RejectedTotal
		c.eng.DedupedSteps += st.DedupedSteps
		c.eng.WALBytesTotal += st.WALBytesTotal
		c.eng.SnapshotBytesTotal += st.SnapshotBytesTotal
		c.eng.CodecInternEntries += st.CodecInternEntries
	}
	if f.cl != nil {
		for _, wc := range []*wire.Client{f.cl.client, f.cl.upstream} {
			st := wc.Stats()
			c.dials += st.Dials
			c.requests += st.Requests
			for _, n := range st.Retries {
				c.retries += n
			}
		}
	}
	if f.lv != nil {
		c.live = f.lv.Stats()
	}
	return c
}

// measurement is everything one timed region produced.
type measurement struct {
	runs          []*clientRun
	before, after counters
	start         time.Time
	wall, cpu     time.Duration
	heapMB        float64
	steps         int // timed steps acked
}

// measure drives the ops the warm-up left and records the timed region.
// Rates are taken over the whole region, not per slice: with GC percent 100
// and a heap that grows all run, a slice is either inside a GC cycle or not,
// and a median of such slices was measured to repeat worse than the mean
// (see README, "Why no slices").
func (f *fixture) measure() *measurement {
	m := &measurement{}
	runtime.GC()
	m.before = f.counters()
	start, cpu := time.Now(), cpuTime()
	m.runs = f.drive(func(c int) []op { return f.plan.ops[c][f.warm[c]:] })
	m.start, m.wall, m.cpu = start, time.Since(start), cpuTime()-cpu
	m.after = f.counters()
	m.heapMB = liveHeapMB()
	for _, r := range m.runs {
		m.steps += r.acked
	}
	return m
}

func (m *measurement) kind(k opKind) []*latencies {
	return m.pick(func(r *clientRun) *latencies { return &r.lat[k] })
}

func (m *measurement) pick(get func(*clientRun) *latencies) []*latencies {
	ls := make([]*latencies, len(m.runs))
	for i, r := range m.runs {
		ls[i] = get(r)
	}
	return ls
}
