package ra_test

// The resident stepper's differential suite. core.Stepper steps on interned
// state appended in place; core.Machine.Step is the value-semantic
// definition and treeExecute the tree-walking oracle. All three must agree
// on the output, the log delta and the (materialized) state after every
// step of scripts that drive one relation past 1k tuples, and a stepper
// rebuilt mid-run from a materialized state — what snapshot/restore and
// ship/install do — must continue the run unchanged.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

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
				r.cut = 20 + rng.Intn(steps-40)
				runs = append(runs, r)
			}
			for i := 0; i < steps; i++ {
				for ri, r := range runs {
					in := r.inputs[i]
					before := in.Clone()
					out := r.st.Step(in)
					if !in.Equal(before) {
						t.Fatalf("run %d step %d: the stepper mutated its input", ri, i+1)
					}
					state := r.st.State()
					delta := sub.m.Schema().LogDelta(in, out)
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
