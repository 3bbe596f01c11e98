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
// function: mutable, with a single owner (a session's shard goroutine, a
// network's caller), and not safe for concurrent use.
type Stepper struct {
	m      *Machine
	state  *ra.Store
	input  *ra.Store
	stores []*ra.Store // the executor's lookup order: state, input, database
	// out and next receive the two plans' derived relations, step after step.
	out, next *ra.Store
}

// NewStepper starts a run of m on db from the given state (nil: the empty
// initial state), which it interns once and does not retain; db is read
// lazily and must not change while the stepper lives. A state relation
// whose arity contradicts the schema is refused — state arrives from
// outside the process in snapshot and ship images.
func (m *Machine) NewStepper(db, state relation.Instance) (*Stepper, error) {
	in := m.plans.state.Interner()
	st := &Stepper{
		m:     m,
		state: ra.NewStore(in, nil),
		input: ra.NewStore(in, nil),
		out:   ra.NewStore(in, nil),
		next:  ra.NewStore(in, nil),
	}
	st.stores = []*ra.Store{st.state, st.input, ra.NewStore(in, db)}
	for name, rel := range state {
		if a, ok := m.schema.State.Arity(name); ok && rel.Len() > 0 && rel.Arity() != a {
			return nil, fmt.Errorf("state relation %s has arity %d, schema says %d", name, rel.Arity(), a)
		}
		st.state.Put(name, rel)
	}
	for _, d := range m.schema.State {
		st.state.Ensure(d.Name, d.Arity)
	}
	return st, nil
}

// Step performs one transition on the resident state — Oᵢ = ω(Iᵢ, Sᵢ₋₁, D)
// is returned, Sᵢ = σ(Iᵢ, Sᵢ₋₁, D) becomes the resident state — with both
// programs reading the previous state, as in Machine.Step. The input is
// neither mutated nor retained.
func (st *Stepper) Step(input relation.Instance) relation.Instance {
	st.input.Reset(input)
	st.m.plans.output.EvalStores(st.out, st.stores)
	st.m.plans.state.EvalStores(st.next, st.stores)
	st.input.Reset(nil)
	st.state.Merge(st.next, st.m.cumulative)
	output := st.out.Instance()
	for _, d := range st.m.schema.Out {
		output.Ensure(d.Name, d.Arity)
	}
	return output
}

// State materializes the current state as constants: a fresh instance that
// shares nothing with the stepper, equal to what Machine.Step would have
// returned after the same inputs. This is the only O(state) operation of a
// run; snapshots, ship images and exports call it, steps never do.
func (st *Stepper) State() relation.Instance { return st.state.Instance() }
