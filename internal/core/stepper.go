package core

import (
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// Stepper is one run of a machine, held the way the executor reads it: the
// cumulated state Sᵢ₋₁ resident as interned relations with their membership
// sets and indexes, the fixed database interned on first reference, and one
// step costing what its input and output cost. Step interns the input, runs
// the output plan and the state plan against the resident state, and folds
// the state plan's derived rows into that state in place — a cumulative
// relation is appended to, a non-cumulative one replaced. Nothing of the
// past is cloned, re-interned or rebuilt, so a step on a state of a million
// tuples costs what it costs on an empty one.
//
// A Stepper computes exactly what iterating Machine.Step computes (package
// ra's TestDifferentialStepper pins that, step for step, against it and
// against the tree oracle); Machine.Step stays the definition — a pure
// function of values — and is what the decision procedures, Execute and
// the benchmark's oracle run. A Stepper is the serving form of the same
// function: mutable, with a single owner (the holder of a session's shard
// lock, a network's caller), and not safe for concurrent use.
type Stepper struct {
	m     *Machine
	state *ra.Store
	// db is the fixed database, interned relation by relation on first
	// reference.
	db *ra.Store
	// orders keeps the state's sorted rows between StateView calls; nil
	// until the first, so a run that never writes an image pays nothing.
	orders *ra.Orders
	// past is Past's last materialization; nil until the first call, and
	// behind a pointer so that a run never verified keeps the Stepper in
	// its allocation size class.
	past *pastAt
}

// scratch is what one step works in and nothing keeps between steps: the
// step's interned input, the stores the two plans derive into, and the
// executor's lookup order (state, input, database). A Stepper borrows one
// from its machine's plans for the length of a Step (machinePlans.borrow),
// so an idle run holds only its state and database, and the scratch of a
// model's runs is as many sets as step at once.
type scratch struct {
	input *ra.Store
	// out and next receive the two plans' derived relations. Merge takes
	// next's relations into the state; out's rows are read where they lie
	// (the tape, the flags) and copied to constants only for a caller that
	// wants the output, so the next step to borrow the set rebuilds them in
	// the same maps and row storage.
	out, next *ra.Store
	lookup    [3]*ra.Store
}

// pastAt is a materialized past and the state's row count when it was
// taken.
type pastAt struct {
	inst relation.Instance
	rows int
}

// NewStepper starts a run of m on db from the given state (nil: the empty
// initial state), which it interns once and does not retain; db is read
// lazily and must not change while the stepper lives. A state relation
// the schema does not declare, or whose arity contradicts it, is refused —
// state arrives from outside the process in snapshot and ship images, and
// seeding a relation gives its name a slot in the model-shared table.
func (m *Machine) NewStepper(db, state relation.Instance) (*Stepper, error) {
	in := m.plans.state.Interner()
	st := &Stepper{m: m, state: ra.NewStore(in, nil), db: ra.NewStore(in, db)}
	for name, rel := range state {
		a, ok := m.schema.State.Arity(name)
		if !ok {
			return nil, fmt.Errorf("state relation %s is not in the schema", name)
		}
		if rel.Len() > 0 && rel.Arity() != a {
			return nil, fmt.Errorf("state relation %s has arity %d, schema says %d", name, rel.Arity(), a)
		}
		st.state.Put(name, rel)
	}
	for _, d := range m.schema.State {
		st.state.Ensure(d.Name, d.Arity)
	}
	return st, nil
}

// Flags is what one step's output says to the acceptance disciplines of
// Section 4: whether it holds an error fact, the ok fact, the accept fact.
type Flags struct{ Error, OK, Accept bool }

// Step performs one transition on the resident state — Oᵢ = ω(Iᵢ, Sᵢ₋₁, D)
// is computed, Sᵢ = σ(Iᵢ, Sᵢ₋₁, D) becomes the resident state — with both
// programs reading the previous state, as in Machine.Step. The input is
// neither mutated nor retained, and must fit the schema's arities.
//
// The step stays interned. A non-nil tape, one of the machine's
// (Machine.NewLogTape), gets the step's log delta appended from the rows
// of the step's stores, as Append(LogDelta(input, Oᵢ)) would record it,
// with no instance built. Oᵢ is materialized as constants only when output
// is set, and then holds the relations the output program derived — a
// declared relation it derived nothing for may be absent, where
// Machine.Step holds it empty; Equal, String and both encodings treat the
// two alike. The Flags are read off the output's row counts either way.
func (st *Stepper) Step(input relation.Instance, tape *LogTape, output bool) (relation.Instance, Flags) {
	p := st.m.plans
	sc := p.borrow()
	sc.lookup[0], sc.lookup[2] = st.state, st.db
	sc.input.Reset(input)
	p.output.EvalStores(sc.out, sc.lookup[:])
	p.state.EvalStores(sc.next, sc.lookup[:])
	if tape != nil {
		tape.appendStores(sc.input, sc.out)
	}
	sc.input.Reset(nil)
	st.state.Merge(sc.next, p.state.CumulativeHeads())
	fs := &st.m.flagSlots
	flags := Flags{
		Error:  len(sc.out.RowsAt(fs[0])) > 0,
		OK:     len(sc.out.RowsAt(fs[1])) > 0,
		Accept: len(sc.out.RowsAt(fs[2])) > 0,
	}
	var out relation.Instance
	if output {
		out = sc.out.Instance()
	}
	p.giveBack(sc)
	return out, flags
}

// State materializes the current state as constants: a fresh instance that
// shares nothing with the stepper, equal to what Machine.Step would have
// returned after the same inputs. It and a Past after the state grew are a
// run's O(state) operations; verification reads and network state exports
// call them; steps and session images never do.
func (st *Stepper) State() relation.Instance { return st.state.Instance() }

// StateView returns the current state as the resident rows hold it, sorted
// for encoding: its Encode writes the bytes codec.Encoder.Instance writes
// for State(), without materializing a constant, and sorts only what the
// state gained since the last call. Later steps do not change the view.
// This is how snapshot and ship images write the state.
func (st *Stepper) StateView() *ra.View {
	if st.orders == nil {
		st.orders = &ra.Orders{}
	}
	return st.state.View(st.orders)
}

// Past materializes the run's cumulated input — every input relation R with
// the tuples its state relation past-R holds, empty relations omitted — as
// an instance sharing nothing with the resident state. For a Spocus machine
// that is the whole of the state the decision procedures read; any other
// kind of machine has no such past and gets nil.
//
// Every state relation of a Spocus machine is cumulative, so a state that
// holds as many rows as at the last call holds the same rows: Past then
// returns the instance it returned last, in O(state relations), and
// materializes afresh only after a step that grew the state. What it
// returns is read-only for every caller, since later calls may hand the
// same instance out again.
func (st *Stepper) Past() relation.Instance {
	if st.m.kind != KindSpocus {
		return nil
	}
	rows := st.state.Rows()
	if st.past != nil && rows == st.past.rows {
		return st.past.inst
	}
	past := relation.NewInstance()
	for name, rel := range st.State() {
		if base, ok := st.m.schema.PastBase(name); ok && rel.Len() > 0 {
			past[base] = rel
		}
	}
	st.past = &pastAt{inst: past, rows: rows}
	return past
}
