package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/dlog"
	"repro/internal/models"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/verify"
)

// Layer probes measure what lies below the lowest spanned layer. They
// replay a seeded sample of the workload's own sessions, step by step and so
// at the state depth each input occurred, through the public functions of
// relation (JSON), ra, core, codec and storage — on one goroutine, after the
// traced run, so they disturb nothing they measure.

// probeSessions is how many sessions the probes replay.
const probeSessions = 16

// probes holds the samples, in microseconds unless named otherwise.
type probes struct {
	compileMS float64
	compiled  int
	raEval    []float64
	coreStep  []float64
	early     []float64 // coreStep at depth about 10
	late      []float64 // coreStep over each session's last steps
	jsonDec   []float64
	jsonEnc   []float64
	codecEnc  []float64
	codecDec  []float64
	codecLen  []float64
	appendUS  []float64
	commitUS  []float64
	reachMS   []float64
	// engine replay of the cluster workload's items (cluster_http).
	engBatchNS, engStepNS   int64
	engBatchItems, engSteps int
}

func since(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// runProbes replays the sampled sessions of f's plan.
func runProbes(f *fixture) (*probes, error) {
	pr := &probes{}
	idx := sample(f.p.seed+1, len(f.plan.sessions), probeSessions)
	compiled := map[string]bool{}

	var st *storage.Store
	enc, dec := codec.NewEncoder(), codec.NewDecoder()
	if f.w.durable {
		dir := filepath.Join(f.dir, "probe")
		defer os.RemoveAll(dir)
		var err error
		if st, err = storage.Open(dir, storage.Options{Fsync: storage.FsyncAlways}); err != nil {
			return nil, err
		}
		nop := func([]byte) error { return nil }
		if _, err = st.Recover(nop, nop); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	appended := 0

	for _, i := range idx {
		s := f.plan.sessions[i]
		mach := models.Get(s.model)
		schema := mach.Schema()
		in := ra.NewInterner()
		t0 := time.Now()
		outPlan, err := ra.Compile(mach.OutputRules(), in)
		if err != nil {
			return nil, fmt.Errorf("probe: compile %s: %w", s.model, err)
		}
		statePlan, err := ra.CompileNoShadow(mach.StateRules(), in)
		if err != nil {
			return nil, fmt.Errorf("probe: compile %s: %w", s.model, err)
		}
		if !compiled[s.model] {
			compiled[s.model] = true
			pr.compileMS += since(t0) / 1e3
			pr.compiled++
		}
		cache := ra.NewCache() // Machine.Step evaluates through a per-machine cache too
		state := relation.NewInstance()
		for _, d := range schema.State {
			state.Ensure(d.Name, d.Arity)
		}
		inputs := s.inputs[:s.acked]
		for j, input := range inputs {
			edb := dlog.MultiDB{input, state, s.db}
			t0 = time.Now()
			if _, err := outPlan.EvalCached(edb, cache); err != nil {
				return nil, err
			}
			if _, err := statePlan.EvalCached(edb, cache); err != nil {
				return nil, err
			}
			pr.raEval = append(pr.raEval, since(t0))

			t0 = time.Now()
			next, out, err := mach.Step(input, state, s.db)
			if err != nil {
				return nil, err
			}
			delta := schema.LogDelta(input, out)
			us := since(t0)
			pr.coreStep = append(pr.coreStep, us)
			if j >= 5 && j < 15 {
				pr.early = append(pr.early, us)
			}
			if j >= len(inputs)-10 {
				pr.late = append(pr.late, us)
			}
			state = next

			if f.w.http {
				res := &session.StepResult{ID: s.id, Seq: j + 1, Output: out, Log: delta, Valid: true}
				t0 = time.Now()
				if _, err := json.Marshal(res); err != nil {
					return nil, err
				}
				pr.jsonEnc = append(pr.jsonEnc, since(t0))
			}

			if st != nil {
				// The engine's step record, field for field.
				t0 = time.Now()
				enc.Uvarint(1) // a WAL record
				enc.Str("step")
				enc.Str(s.id)
				enc.Str("") // model
				enc.Str("") // src
				enc.Str("") // mode
				enc.Str(stepKey(int32(j)))
				enc.Uvarint(uint64(j + 1))
				enc.Uvarint(1 << 2) // carries an input
				enc.Instance(input)
				payload := enc.Finish()
				pr.codecEnc = append(pr.codecEnc, since(t0))
				pr.codecLen = append(pr.codecLen, float64(len(payload)))

				t0 = time.Now()
				r, err := dec.Record(payload)
				if err != nil {
					return nil, err
				}
				r.Uvarint()
				for k := 0; k < 6; k++ {
					r.Str()
				}
				r.Uvarint()
				r.Uvarint()
				r.Instance()
				if err := r.End(); err != nil {
					return nil, fmt.Errorf("probe: decode own record: %w", err)
				}
				pr.codecDec = append(pr.codecDec, since(t0))

				t0 = time.Now()
				if _, err := st.Append(payload); err != nil {
					return nil, err
				}
				pr.appendUS = append(pr.appendUS, since(t0))
				if appended++; appended%32 == 0 {
					t0 = time.Now()
					if _, err := st.Commit(); err != nil {
						return nil, err
					}
					pr.commitUS = append(pr.commitUS, since(t0))
				}
			}
		}
	}
	if f.w.verify {
		if err := pr.reach(f, idx); err != nil {
			return nil, err
		}
	}
	if f.w.http {
		if err := pr.decode(f); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// decode times JSON decoding of the bodies the backends receive: the
// pre-encoded envelopes and single-step bodies of client 0, decoded into
// the handler's own request types, per step carried.
func (pr *probes) decode(f *fixture) error {
	const bodies = 256
	for i := range f.plan.ops[0] {
		if len(pr.jsonDec) == bodies {
			break
		}
		o := &f.plan.ops[0][i]
		t0 := time.Now()
		var err error
		switch o.kind {
		case opBatch:
			var req session.BatchRequest
			err = json.Unmarshal(o.body, &req)
		case opStep:
			var req struct {
				Input relation.Instance `json:"input"`
			}
			err = json.Unmarshal(o.body, &req)
		}
		if err != nil {
			return err
		}
		pr.jsonDec = append(pr.jsonDec, since(t0)/float64(o.steps()))
	}
	return nil
}

// reach times the solver's cold path on prefixes the workload reached.
func (pr *probes) reach(f *fixture, idx []int) error {
	g, err := verify.ParseGoal(goal)
	if err != nil {
		return err
	}
	for k, i := range idx {
		s := f.plan.sessions[i]
		if s.acked == 0 {
			continue
		}
		// A different depth per sampled session, all within its script.
		upto := 1 + (k*7)%s.acked
		past := relation.NewInstance()
		for _, in := range s.inputs[:upto] {
			past.UnionWith(in)
		}
		t0 := time.Now()
		res, err := verify.ReachGoalFrom(models.Get(s.model), s.db, relation.Sequence{past}, g, &verify.Options{Cache: verify.NewCache()})
		if err != nil {
			return err
		}
		if !res.Reachable {
			return fmt.Errorf("probe: %s unreachable from a prefix of %s", goal, s.id)
		}
		pr.reachMS = append(pr.reachMS, since(t0)/1e3)
	}
	return nil
}

// engineReplay measures engine time for the items cluster_http's backends
// handled: client 0's ops are replayed into a fresh in-process memory
// engine, each envelope split by ring owner exactly as the router split it,
// and every call timed. It must run while the fixture's router is alive.
func (pr *probes) engineReplay(f *fixture) error {
	eng, err := session.NewEngine(f.w.cfg(""))
	if err != nil {
		return err
	}
	defer eng.Shutdown()
	for _, s := range f.plan.sessions {
		if s.client != 0 {
			continue
		}
		if _, err := eng.Open(&session.OpenRequest{ID: s.id, Model: s.model, DB: s.db}); err != nil {
			return err
		}
	}
	ring := f.cl.router.Ring()
	for i := range f.plan.ops[0] {
		o := &f.plan.ops[0][i]
		switch o.kind {
		case opStep:
			t0 := time.Now()
			if _, err := eng.Input(f.plan.sessions[o.s].id, o.in); err != nil {
				return err
			}
			pr.engStepNS += int64(time.Since(t0))
			pr.engSteps++
		case opBatch:
			groups := map[string][]session.BatchItem{}
			var order []string
			for _, it := range o.items {
				owner, err := ring.Lookup(it.Session)
				if err != nil {
					return err
				}
				if _, ok := groups[owner]; !ok {
					order = append(order, owner)
				}
				groups[owner] = append(groups[owner], it)
			}
			for _, owner := range order {
				t0 := time.Now()
				for _, r := range eng.InputBatch(groups[owner]) {
					if r.Err != nil {
						return r.Err
					}
				}
				pr.engBatchNS += int64(time.Since(t0))
				pr.engBatchItems += len(groups[owner])
			}
		}
	}
	return nil
}

// blocking counts, over the timed ops, how many items lie on each call's
// blocking path: a single step is one; a batch waits for its fullest shard
// (in the fullest backend, over HTTP). decode counts the items the fullest
// backend decodes per envelope. The router must be alive for cluster_http.
func (f *fixture) blocking() (exec, decode int, err error) {
	for c := range f.plan.ops {
		for i := f.warm[c]; i < len(f.plan.ops[c]); i++ {
			o := &f.plan.ops[c][i]
			switch o.kind {
			case opStep:
				exec++
				decode++
			case opBatch:
				type place struct {
					owner string
					shard int
				}
				perShard := map[place]int{}
				perOwner := map[string]int{}
				for _, it := range o.items {
					owner := ""
					if f.cl != nil {
						if owner, err = f.cl.router.Ring().Lookup(it.Session); err != nil {
							return 0, 0, err
						}
					}
					perOwner[owner]++
					perShard[place{owner, session.ShardOf(it.Session, shards)}]++
				}
				exec += maxOf(perShard)
				decode += maxOf(perOwner)
			}
		}
	}
	return exec, decode, nil
}

func maxOf[K comparable](m map[K]int) int {
	max := 0
	for _, n := range m {
		if n > max {
			max = n
		}
	}
	return max
}
