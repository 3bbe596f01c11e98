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

func TestDifferentialStepper(t *testing.T) {
	type subject struct {
		name   string
		m      *core.Machine
		db     relation.Instance
		repeat float64
	}
	var subjects []subject
	for _, name := range models.Names() {
		subjects = append(subjects, subject{name, models.Get(name), models.DefaultDB(name), 0.2})
	}
	subjects = append(subjects,
		subject{"flipflop", core.MustParseProgram(flipflopSrc), relation.NewInstance(), 0},
		subject{"recursive", core.MustParseProgram(reachSrc), relation.NewInstance(), 0.2},
		// Nearly every step re-sends a tuple past-order already holds.
		subject{"short-repeats", models.Short(), models.MagazineDB(), 0.95},
	)
	for i, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			const steps, grow = 300, 8
			rng := rand.New(rand.NewSource(int64(7919 * (i + 1))))
			inputs := deepScript(rng, sub.m, sub.db, steps, grow, sub.repeat)
			tree, err := treeExecute(sub.m, sub.db, inputs)
			if err != nil {
				t.Fatalf("tree oracle: %v", err)
			}
			ref, err := sub.m.Execute(sub.db, inputs)
			if err != nil {
				t.Fatalf("Machine.Execute: %v", err)
			}
			st, err := sub.m.NewStepper(sub.db, nil)
			if err != nil {
				t.Fatal(err)
			}
			cut := 20 + rng.Intn(steps-40)
			for i, in := range inputs {
				before := in.Clone()
				out := st.Step(in)
				if !in.Equal(before) {
					t.Fatalf("step %d: the stepper mutated its input", i+1)
				}
				state := st.State()
				delta := sub.m.Schema().LogDelta(in, out)
				for _, side := range []struct {
					name string
					run  *core.Run
				}{{"Machine.Step", ref}, {"tree oracle", tree}} {
					if !out.Equal(side.run.Outputs[i]) {
						t.Fatalf("step %d: output differs from %s\ninput: %v\nstepper: %v\nwant:    %v", i+1, side.name, in, out, side.run.Outputs[i])
					}
					if !delta.Equal(side.run.Logs[i]) {
						t.Fatalf("step %d: log delta differs from %s\nstepper: %v\nwant:    %v", i+1, side.name, delta, side.run.Logs[i])
					}
					if !state.Equal(side.run.States[i]) {
						t.Fatalf("step %d: state differs from %s", i+1, side.name)
					}
				}
				if i == cut {
					// Cut over: the run continues on a fresh stepper seeded
					// from the materialized state, and that state is the
					// caller's — the stepper may not hold on to it.
					if st, err = sub.m.NewStepper(sub.db, state); err != nil {
						t.Fatalf("step %d: cut-over: %v", i+1, err)
					}
					for _, rel := range state {
						rel.Add(make(relation.Tuple, rel.Arity()))
					}
				}
			}
			produced := 0
			for _, out := range ref.Outputs {
				if !out.Empty() {
					produced++
				}
			}
			deepest := 0
			for _, rel := range ref.States[steps-1] {
				if rel.Len() > deepest {
					deepest = rel.Len()
				}
			}
			growable := false
			for _, d := range sub.m.Schema().In {
				growable = growable || d.Arity > 0
			}
			if growable && (deepest < 1000 || produced < 10) {
				t.Fatalf("the script exercises too little: %d tuples in the largest relation (want ≥ 1000), output on %d steps (want ≥ 10)", deepest, produced)
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
