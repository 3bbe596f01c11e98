package ra_test

// The resident stepper's differential suite. core.Stepper steps on interned
// state appended in place; core.Machine.Step is the value-semantic
// definition and treeExecute the tree-walking oracle. All three must agree
// on the output, the log delta and the (materialized) state after every
// step of scripts that drive one relation past 1k tuples, and a stepper
// rebuilt mid-run from a materialized state — what snapshot/restore and
// ship/install do — must continue the run unchanged. The log tape the
// stepper writes from its stores must record every step as
// Append(LogDelta(input, output)) records it, byte for byte.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/models"
	"repro/internal/relation"
)

// stepBytes is a tape's encoding of step i (core.LogTape.EncodeStep), the
// exact form of what it recorded: names, arities, counts and constants in
// order.
func stepBytes(tape *core.LogTape, i int) []byte {
	var w byteWriter
	tape.EncodeStep(&w, i)
	return w
}

type byteWriter []byte

func (w *byteWriter) Uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }
func (w *byteWriter) Str(s string)     { w.Uvarint(uint64(len(s))); *w = append(*w, s...) }

// tapeCheck holds a run's two tapes: the one the stepper writes from its
// stores, and the reference, appended LogDelta's instance of each step.
type tapeCheck struct{ stores, ref *core.LogTape }

func newTapeCheck(m *core.Machine) *tapeCheck {
	return &tapeCheck{stores: m.NewLogTape(), ref: m.NewLogTape()}
}

// check appends step i's delta to the reference and requires the stepper's
// record of it to be the same bytes, and the flags the stepper read off its
// stores to be the output's.
func (c *tapeCheck) check(t *testing.T, i int, delta, out relation.Instance, flags core.Flags) {
	t.Helper()
	c.ref.Append(delta)
	if c.stores.Len() != i+1 || c.ref.Len() != i+1 {
		t.Fatalf("step %d: tapes hold %d and %d steps", i+1, c.stores.Len(), c.ref.Len())
	}
	if got, want := stepBytes(c.stores, i), stepBytes(c.ref, i); string(got) != string(want) {
		t.Fatalf("step %d: the tape written from the stores records %v, Append(LogDelta) records %v", i+1, c.stores.Delta(i), c.ref.Delta(i))
	}
	want := core.Flags{
		Error:  out.Rel(core.ErrorRel).Len() > 0,
		OK:     out.Rel(core.OKRel).Len() > 0,
		Accept: out.Rel(core.AcceptRel).Len() > 0,
	}
	if flags != want {
		t.Fatalf("step %d: flags %+v, the output says %+v", i+1, flags, want)
	}
}

// checkStepper runs inputs on a stepper of m writing a tape, beside
// Machine.Execute: every step's output must equal Machine.Step's and its
// tape record Append(LogDelta)'s.
func checkStepper(t *testing.T, m *core.Machine, db relation.Instance, inputs relation.Sequence) {
	t.Helper()
	ref, err := m.Execute(db, inputs)
	if err != nil {
		t.Fatalf("Machine.Execute: %v", err)
	}
	st, err := m.NewStepper(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	tapes := newTapeCheck(m)
	for i, in := range inputs {
		out, flags := st.Step(in, tapes.stores, true)
		if !out.Equal(ref.Outputs[i]) {
			t.Fatalf("step %d: output differs from Machine.Step\nprogram:\n%s\ninput: %v\nstepper: %v\nwant:    %v", i+1, m, in, out, ref.Outputs[i])
		}
		tapes.check(t, i, m.Schema().LogDelta(in, out), out, flags)
		if !tapes.stores.Delta(i).Equal(ref.Logs[i]) {
			t.Fatalf("step %d: the tape's delta differs from Machine.Execute's log", i+1)
		}
	}
}

// generalMachine makes a general machine of a rule program: the heads are
// its output relations, every other relation its rules mention an input
// relation, log the relations keep tells it to (nil: all). A program no
// machine can run (an arity used two ways, a rule the planner refuses) gives
// nil.
func generalMachine(prog dlog.Program, keep func(string) bool) *core.Machine {
	arity := map[string]int{}
	heads := map[string]bool{}
	var names []string
	note := func(a dlog.Atom) bool {
		if n, ok := arity[a.Pred]; ok {
			return n == len(a.Args)
		}
		arity[a.Pred] = len(a.Args)
		names = append(names, a.Pred)
		return true
	}
	rules := make(dlog.Program, len(prog))
	for i, r := range prog {
		r.Cumulative = false
		rules[i] = r
		heads[r.Head.Pred] = true
		if !note(r.Head) {
			return nil
		}
		for _, l := range r.Body {
			if (l.Kind == dlog.LitPos || l.Kind == dlog.LitNeg) && !note(l.Atom) {
				return nil
			}
		}
	}
	schema := &core.Schema{}
	for _, name := range names {
		d := relation.Decl{Name: name, Arity: arity[name]}
		if heads[name] {
			schema.Out = append(schema.Out, d)
		} else {
			schema.In = append(schema.In, d)
		}
		if keep == nil || keep(name) {
			schema.Log = append(schema.Log, name)
		}
	}
	m, err := core.NewGeneral(schema, nil, rules)
	if err != nil {
		return nil
	}
	return m
}

// TestStepperTapeIsTheLog extends the tape check of TestDifferentialStepper
// to the differential suite's programs: the generated ones of
// TestDifferentialQuick, each logging a random part of its relations, and
// the hand-picked seeds of TestDifferentialSeeds, each logging all of them,
// as the output programs of general machines stepped on random inputs.
func TestStepperTapeIsTheLog(t *testing.T) {
	ran := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := generalMachine(genProgram(rng), func(string) bool { return rng.Intn(3) > 0 })
		if m == nil {
			return true
		}
		ran++
		checkStepper(t, m, relation.NewInstance(), randInputs(rng, m, constPool(m, nil), 8))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if ran < 100 {
		t.Fatalf("only %d of 200 generated programs made a machine", ran)
	}
	seeds := append([]string{}, paperSeedPrograms...)
	seeds = append(seeds, loadDlogFuzzCorpus(t)...)
	rng := rand.New(rand.NewSource(1))
	for i, src := range seeds {
		prog, err := dlog.ParseProgram(src)
		if err != nil {
			continue
		}
		m := generalMachine(prog, nil)
		if m == nil {
			continue
		}
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			checkStepper(t, m, relation.NewInstance(), randInputs(rng, m, constPool(m, nil), 8))
		})
	}
}

// flipflopSrc has a non-cumulative state relation that negates itself: the
// stepper must replace it each step, and read the previous value while
// deriving the next.
const flipflopSrc = `
transducer flipflop
schema
  input: tick/0;
  state: on/0;
  output: lit/0;
  log: lit;
state rules
  on :- tick, NOT on;
output rules
  lit :- on;
`

// reachSrc is a general machine with a recursive output stratum reading
// cumulated state, two cumulative rules feeding one head, and a
// non-cumulative relation replaced (or emptied) every step.
const reachSrc = `
transducer reach
schema
  input: edge/2;
  state: past-edge/2, node/1, last/1;
  output: reach/2, again/1;
  log: edge, again;
state rules
  past-edge(X,Y) +:- edge(X,Y);
  node(X) +:- edge(X,Y);
  node(Y) +:- edge(X,Y);
  last(X) :- edge(X,Y);
output rules
  reach(X,Y) :- edge(X,Y);
  reach(X,Z) :- reach(X,Y), past-edge(Y,Z);
  again(X) :- edge(X,Y), last(X);
`

// deepScript builds a seeded input sequence that grows the machine's first
// positive-arity input relation by about grow tuples a step — fresh
// constants mostly, so the state gets deep — while every input relation
// also draws pool constants and whole database tuples of its arity, so
// joins against the database and the cumulated past fire. With probability
// repeat a step re-sends a tuple an earlier step sent, which the cumulative
// append must dedupe.
func deepScript(rng *rand.Rand, m *core.Machine, db relation.Instance, steps, grow int, repeat float64) relation.Sequence {
	pool := constPool(m, db)
	dbTuples := map[int][]relation.Tuple{}
	for _, name := range db.Names() {
		dbTuples[db[name].Arity()] = append(dbTuples[db[name].Arity()], db[name].Tuples()...)
	}
	growRel := ""
	for _, d := range m.Schema().In {
		if d.Arity > 0 {
			growRel = d.Name
			break
		}
	}
	fresh := 0
	var sent []relation.Tuple
	seq := make(relation.Sequence, steps)
	for s := range seq {
		in := relation.NewInstance()
		for _, d := range m.Schema().In {
			n := rng.Intn(2)
			if d.Name == growRel {
				n = grow
			}
			for ; n > 0; n-- {
				t := make(relation.Tuple, d.Arity)
				switch from := dbTuples[d.Arity]; {
				case len(from) > 0 && rng.Intn(3) == 0:
					copy(t, from[rng.Intn(len(from))])
				default:
					for j := range t {
						if d.Name == growRel && rng.Intn(10) < 7 {
							fresh++
							t[j] = relation.Const(fmt.Sprintf("fresh-%d", fresh))
						} else {
							t[j] = pool[rng.Intn(len(pool))]
						}
					}
				}
				in.Add(d.Name, t)
				if d.Name == growRel {
					sent = append(sent, t)
				}
			}
		}
		if len(sent) > 0 && rng.Float64() < repeat {
			in.Add(growRel, sent[rng.Intn(len(sent))])
		}
		seq[s] = in
	}
	return seq
}

// varyPresence rewrites script so that name is absent from every third
// step, present but empty on the next, and as drawn on the one after: a
// stepper whose input slot outlived its step would read stale tuples on
// the first two kinds of step.
func varyPresence(script relation.Sequence, name string, arity int) {
	for i, in := range script {
		switch i % 3 {
		case 0:
			delete(in, name)
		case 1:
			delete(in, name)
			in.Ensure(name, arity)
		}
	}
}

// pressDB is a second catalogue for SHORT: one title shared with
// models.MagazineDB at another price, and two of its own.
func pressDB() relation.Instance {
	db := relation.NewInstance()
	for _, f := range [][2]relation.Const{{"time", "990"}, {"wired", "120"}, {"byte", "75"}} {
		db.Add("price", relation.Tuple{f[0], f[1]})
		db.Add("available", relation.Tuple{f[0]})
	}
	return db
}

func TestDifferentialStepper(t *testing.T) {
	type subject struct {
		name string
		m    *core.Machine
		// dbs holds one database per run; the runs share the machine's
		// cached plans and are stepped interleaved, step i of every run
		// before step i+1 of any.
		dbs    []relation.Instance
		repeat float64
		// vary, when set, names an input relation varyPresence rewrites.
		vary string
	}
	var subjects []subject
	for _, name := range models.Names() {
		subjects = append(subjects, subject{name: name, m: models.Get(name), dbs: []relation.Instance{models.DefaultDB(name)}, repeat: 0.2})
	}
	subjects = append(subjects,
		subject{name: "flipflop", m: core.MustParseProgram(flipflopSrc), dbs: []relation.Instance{relation.NewInstance()}},
		subject{name: "recursive", m: core.MustParseProgram(reachSrc), dbs: []relation.Instance{relation.NewInstance()}, repeat: 0.2},
		// Nearly every step re-sends a tuple past-order already holds.
		subject{name: "short-repeats", m: models.Short(), dbs: []relation.Instance{models.MagazineDB()}, repeat: 0.95},
		// pay — the input deliver's join opens from — comes and goes.
		subject{name: "short-input-comes-and-goes", m: models.Short(), dbs: []relation.Instance{models.MagazineDB()}, repeat: 0.2, vary: "pay"},
		// Two runs of one cached plan, and so of one slot table, over
		// databases that disagree on a price.
		subject{name: "short-two-databases", m: models.Short(), dbs: []relation.Instance{models.MagazineDB(), pressDB()}, repeat: 0.2},
	)
	type run struct {
		db        relation.Instance
		inputs    relation.Sequence
		tree, ref *core.Run
		st        *core.Stepper
		tapes     *tapeCheck
		cut       int
	}
	for i, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			const steps, grow = 300, 8
			rng := rand.New(rand.NewSource(int64(7919 * (i + 1))))
			var runs []*run
			for _, db := range sub.dbs {
				r := &run{db: db, inputs: deepScript(rng, sub.m, db, steps, grow, sub.repeat)}
				if sub.vary != "" {
					a, _ := sub.m.Schema().In.Arity(sub.vary)
					varyPresence(r.inputs, sub.vary, a)
				}
				var err error
				if r.tree, err = treeExecute(sub.m, db, r.inputs); err != nil {
					t.Fatalf("tree oracle: %v", err)
				}
				if r.ref, err = sub.m.Execute(db, r.inputs); err != nil {
					t.Fatalf("Machine.Execute: %v", err)
				}
				if r.st, err = sub.m.NewStepper(db, nil); err != nil {
					t.Fatal(err)
				}
				r.tapes = newTapeCheck(sub.m)
				r.cut = 20 + rng.Intn(steps-40)
				runs = append(runs, r)
			}
			for i := 0; i < steps; i++ {
				for ri, r := range runs {
					in := r.inputs[i]
					before := in.Clone()
					out, flags := r.st.Step(in, r.tapes.stores, true)
					if !in.Equal(before) {
						t.Fatalf("run %d step %d: the stepper mutated its input", ri, i+1)
					}
					state := r.st.State()
					delta := sub.m.Schema().LogDelta(in, out)
					r.tapes.check(t, i, delta, out, flags)
					for _, side := range []struct {
						name string
						run  *core.Run
					}{{"Machine.Step", r.ref}, {"tree oracle", r.tree}} {
						if !out.Equal(side.run.Outputs[i]) {
							t.Fatalf("run %d step %d: output differs from %s\ninput: %v\nstepper: %v\nwant:    %v", ri, i+1, side.name, in, out, side.run.Outputs[i])
						}
						if !delta.Equal(side.run.Logs[i]) {
							t.Fatalf("run %d step %d: log delta differs from %s\nstepper: %v\nwant:    %v", ri, i+1, side.name, delta, side.run.Logs[i])
						}
						if !state.Equal(side.run.States[i]) {
							t.Fatalf("run %d step %d: state differs from %s", ri, i+1, side.name)
						}
					}
					if i == r.cut {
						// Cut over: the run continues on a fresh stepper
						// seeded from the materialized state, and that state
						// is the caller's — the stepper may not hold on to it.
						var err error
						if r.st, err = sub.m.NewStepper(r.db, state); err != nil {
							t.Fatalf("run %d step %d: cut-over: %v", ri, i+1, err)
						}
						for _, rel := range state {
							rel.Add(make(relation.Tuple, rel.Arity()))
						}
					}
				}
			}
			for ri, r := range runs {
				produced := 0
				for _, out := range r.ref.Outputs {
					if !out.Empty() {
						produced++
					}
				}
				deepest := 0
				for _, rel := range r.ref.States[steps-1] {
					if rel.Len() > deepest {
						deepest = rel.Len()
					}
				}
				growable := false
				for _, d := range sub.m.Schema().In {
					growable = growable || d.Arity > 0
				}
				if growable && (deepest < 1000 || produced < 10) {
					t.Fatalf("run %d: the script exercises too little: %d tuples in the largest relation (want ≥ 1000), output on %d steps (want ≥ 10)", ri, deepest, produced)
				}
			}
		})
	}
}

// TestStepperRefusesMisshapenState: state arrives in images from outside
// the process, and a relation whose arity contradicts the schema would
// otherwise sit in the resident store until a materialization panicked.
func TestStepperRefusesMisshapenState(t *testing.T) {
	m := models.Short()
	state := relation.NewInstance()
	state.Add("past-order", relation.Tuple{"time", "855"})
	if _, err := m.NewStepper(models.MagazineDB(), state); err == nil {
		t.Fatal("a binary past-order was accepted")
	}
}

// TestStepperRefusesUndeclaredState: a relation the schema does not declare
// would be carried into every later State() and snapshot, and seeding it
// would give its name a slot in the table every session of the model
// shares — a table that must grow only with programs and schemas, never
// with image bytes.
func TestStepperRefusesUndeclaredState(t *testing.T) {
	m := models.Short()
	state := relation.NewInstance()
	state.Add("past-order", relation.Tuple{"time"})
	state.Add("no-such-relation", relation.Tuple{"a", "b", "c"})
	if _, err := m.NewStepper(models.MagazineDB(), state); err == nil {
		t.Fatal("an undeclared state relation was accepted")
	}
	delete(state, "no-such-relation")
	if _, err := m.NewStepper(models.MagazineDB(), state); err != nil {
		t.Fatalf("a declared state was refused: %v", err)
	}
}
