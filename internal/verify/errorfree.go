package verify

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/tsdi"
)

// ErrNegativeStateLiteral reports that a machine's error rules use negation
// on a state literal, taking it outside the decidable cases of Theorems 4.4
// and 4.6 (Theorems 4.3 and 4.5 show the general problems undecidable).
type ErrNegativeStateLiteral struct {
	Machine string
	Rule    dlog.Rule
}

func (e *ErrNegativeStateLiteral) Error() string {
	return fmt.Sprintf("verify: machine %q: error rule %q contains a negative state literal; the unrestricted problem is undecidable (Theorems 4.3/4.5)", e.Machine, e.Rule)
}

// checkNoNegativeStateLiterals enforces the hypothesis of Theorems 4.4/4.6.
func checkNoNegativeStateLiterals(m *core.Machine) error {
	s := m.Schema()
	for _, r := range m.ErrorRules() {
		for _, l := range r.Body {
			if l.Kind == dlog.LitNeg && s.State.Has(l.Atom.Pred) {
				return &ErrNegativeStateLiteral{Machine: m.Name(), Rule: r}
			}
		}
	}
	return nil
}

// ErrorFreeResult is the outcome of a Theorem 4.4 check.
type ErrorFreeResult struct {
	// Holds reports whether every error-free run satisfies the sentence.
	Holds bool
	// Counterexample is an error-free run violating a clause at its last
	// transition.
	Counterexample relation.Sequence
	// Violated is the failing clause.
	Violated *tsdi.Clause
	Stats    Stats
}

// CheckErrorFree decides, per Theorem 4.4, whether every error-free run of
// the Spocus transducer m on db satisfies the T_sdi sentence at every
// transition. The machine's error rules must contain no negative state
// literal. For a clause whose If side has k positive state literals,
// error-free runs of length k+1 suffice to witness a violation.
// CheckErrorFree fans the per-clause, per-run-length subproblems across
// Options.Parallelism workers; the first violation found wins. The Holds
// verdict is parallelism-independent; the reported clause and
// counterexample may differ from the sequential run when several
// (clause, length) pairs are violated.
func CheckErrorFree(m *core.Machine, db relation.Instance, sentence *tsdi.Sentence, opts *Options) (*ErrorFreeResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	if err := requireSpocus(m); err != nil {
		return nil, err
	}
	if err := checkNoNegativeStateLiterals(m); err != nil {
		return nil, err
	}
	if err := sentence.Validate(m.Schema()); err != nil {
		return nil, err
	}
	// One unit per (clause, run length) pair, flattened in the sequential
	// search order. The subsequence argument of Theorem 4.4 bounds a
	// violating error-free run by k+1 steps (k = positive state literals of
	// the If side) but does not let shorter witnesses be padded to exactly
	// k+1 — padding can introduce errors — so every length up to the bound
	// is searched.
	var units []unit[*ErrorFreeResult]
	for ci := range sentence.Clauses {
		c := &sentence.Clauses[ci]
		maxN := positiveStateLiterals(c.If, m.Schema()) + 1
		for n := 1; n <= maxN; n++ {
			n := n
			units = append(units, unit[*ErrorFreeResult]{run: func(ctx context.Context) (*ErrorFreeResult, bool, error) {
				return checkClauseAt(ctx, m, db, c, n, opts)
			}})
		}
	}
	found, ok, err := searchFirst(ctx, opts.workers(), units)
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	return &ErrorFreeResult{Holds: true}, nil
}

// checkClauseAt searches for an error-free run of exactly length n whose
// last transition violates the clause; on success it returns the populated
// violation result.
func checkClauseAt(ctx context.Context, m *core.Machine, db relation.Instance, c *tsdi.Clause, n int, opts *Options) (*ErrorFreeResult, bool, error) {
	t := newTranslator(m, "")
	// Violation of the clause at step n: ∃x̄ (If' ∧ ⋀¬Then').
	var lits []fol.Formula
	for _, l := range c.If {
		f, err := t.literal(l, n)
		if err != nil {
			return nil, false, err
		}
		lits = append(lits, f)
	}
	for _, a := range c.Then {
		f, err := t.literal(dlog.Pos(a), n)
		if err != nil {
			return nil, false, err
		}
		lits = append(lits, fol.NotF(f))
	}
	violation := fol.ExistsF(c.Vars(), fol.AndF(lits...))
	// Error-freeness at every step 1..n.
	var noErr []fol.Formula
	for j := 1; j <= n; j++ {
		f, err := t.noErrorAt(j)
		if err != nil {
			return nil, false, err
		}
		noErr = append(noErr, f)
	}
	fixed := map[string]*relation.Rel{}
	free := map[string]int{}
	t.freePreds(n, free)
	if opts.UnknownDB {
		dbPreds(m, nil, fixed, free)
	} else {
		dbPreds(m, db, fixed, free)
	}
	res, err := solveSub(ctx, opts, &fol.Problem{
		Formula:     fol.AndF(append(noErr, violation)...),
		Fixed:       fixed,
		Free:        free,
		ExtraConsts: m.Constants(),
		Tag:         m.Fingerprint(),
	})
	if err != nil {
		return nil, false, err
	}
	if res.Status == sat.Unsat {
		return nil, false, nil
	}
	out := &ErrorFreeResult{Stats: statsOf(res), Violated: c}
	out.Counterexample = t.extractInputs(res.Model, n)
	if !opts.UnknownDB {
		if err := replayErrorFreeViolation(m, db, out.Counterexample, *c); err != nil {
			return nil, false, fmt.Errorf("verify: internal error: %w", err)
		}
		out.Counterexample = shrinkInputs(out.Counterexample, func(cand relation.Sequence) bool {
			return len(cand) > 0 && replayErrorFreeViolation(m, db, cand, *c) == nil
		})
	}
	return out, true, nil
}

// positiveStateLiterals counts the positive state literals of a body — the
// k of Theorem 4.4's run-length bound.
func positiveStateLiterals(body []dlog.Literal, s *core.Schema) int {
	k := 0
	for _, l := range body {
		if l.Kind == dlog.LitPos && s.State.Has(l.Atom.Pred) {
			k++
		}
	}
	return k
}

// replayErrorFreeViolation checks the counterexample run is error-free and
// violates the clause at its final transition.
func replayErrorFreeViolation(m *core.Machine, db relation.Instance, seq relation.Sequence, c tsdi.Clause) error {
	run, err := m.Execute(db, seq)
	if err != nil {
		return err
	}
	if !run.Valid(core.ErrorFree) {
		return fmt.Errorf("counterexample run is not error-free (error at step %d)", run.ErrorFreePrefix()+1)
	}
	one := &tsdi.Sentence{Clauses: []tsdi.Clause{c}}
	last := run.Len() - 1
	state := relation.NewInstance()
	for _, d := range m.Schema().In {
		state.Ensure(core.Past(d.Name), d.Arity)
	}
	for i := 0; i < last; i++ {
		for _, d := range m.Schema().In {
			if r := run.Inputs[i].Rel(d.Name); r != nil {
				state.Ensure(core.Past(d.Name), d.Arity).UnionWith(r)
			}
		}
	}
	ok, err := one.HoldsAt(run.Inputs[last], state, db)
	if err != nil {
		return err
	}
	if ok {
		return fmt.Errorf("counterexample does not violate clause %q at last transition", c)
	}
	return nil
}

// ErrorFreeContainResult is the outcome of a Theorem 4.6 check.
type ErrorFreeContainResult struct {
	// Contained reports whether every error-free run of the first machine
	// is an error-free run of the second.
	Contained bool
	// Counterexample is a run error-free for the first machine on which the
	// second raises error at the last step.
	Counterexample relation.Sequence
	Stats          Stats
}

// ErrorFreeContained decides, per Theorem 4.6, whether every error-free run
// of t1 is also error-free for t2. Both machines must share the same input
// schema and a full log, and neither may use negative state literals in
// error rules. A violation is witnessed by a run, error-free for t1
// throughout and for t2 up to its penultimate step, whose last step fires a
// t2 error rule; runs of length (state literals of that rule)+1 suffice.
func ErrorFreeContained(t1, t2 *core.Machine, db relation.Instance, opts *Options) (*ErrorFreeContainResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	for _, m := range []*core.Machine{t1, t2} {
		if err := requireSpocus(m); err != nil {
			return nil, err
		}
		if err := checkNoNegativeStateLiterals(m); err != nil {
			return nil, err
		}
	}
	if err := sameInputSchema(t1, t2); err != nil {
		return nil, err
	}
	// One unit per (t2 error rule, run length) pair, fanned across workers.
	// As in CheckErrorFree, every run length up to the bound is searched;
	// shorter witnesses cannot in general be padded.
	var units []unit[*ErrorFreeContainResult]
	for _, r := range t2.ErrorRules() {
		r := r
		maxN := positiveStateLiterals(r.Body, t2.Schema()) + 1
		for n := 1; n <= maxN; n++ {
			n := n
			units = append(units, unit[*ErrorFreeContainResult]{run: func(ctx context.Context) (*ErrorFreeContainResult, bool, error) {
				return errorFreeContainAt(ctx, t1, t2, db, r, n, opts)
			}})
		}
	}
	found, ok, err := searchFirst(ctx, opts.workers(), units)
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	return &ErrorFreeContainResult{Contained: true}, nil
}

// errorFreeContainAt searches for a length-n run, error-free for t1
// throughout and for t2 up to step n-1, whose step n fires the given t2
// error rule; on success it returns the populated counterexample result.
func errorFreeContainAt(ctx context.Context, t1, t2 *core.Machine, db relation.Instance, r dlog.Rule, n int, opts *Options) (*ErrorFreeContainResult, bool, error) {
	tr1 := newTranslator(t1, "")
	tr2 := newTranslator(t2, "")
	var conj []fol.Formula
	for j := 1; j <= n; j++ {
		f, err := tr1.noErrorAt(j)
		if err != nil {
			return nil, false, err
		}
		conj = append(conj, f)
	}
	for j := 1; j < n; j++ {
		f, err := tr2.noErrorAt(j)
		if err != nil {
			return nil, false, err
		}
		conj = append(conj, f)
	}
	// Rule r fires at step n.
	bf, err := tr2.body(r.Body, n)
	if err != nil {
		return nil, false, err
	}
	conj = append(conj, fol.ExistsF(r.Vars(), bf))

	fixed := map[string]*relation.Rel{}
	free := map[string]int{}
	tr1.freePreds(n, free) // same input schema: shared replicas
	if opts.UnknownDB {
		dbPreds(t1, nil, fixed, free)
		dbPreds(t2, nil, fixed, free)
	} else {
		dbPreds(t1, db, fixed, free)
		dbPreds(t2, db, fixed, free)
	}
	res, err := solveSub(ctx, opts, &fol.Problem{
		Formula:     fol.AndF(conj...),
		Fixed:       fixed,
		Free:        free,
		ExtraConsts: append(t1.Constants(), t2.Constants()...),
		Tag:         t1.Fingerprint() + "+" + t2.Fingerprint(),
	})
	if err != nil {
		return nil, false, err
	}
	if res.Status == sat.Unsat {
		return nil, false, nil
	}
	out := &ErrorFreeContainResult{Stats: statsOf(res)}
	out.Counterexample = tr1.extractInputs(res.Model, n)
	if !opts.UnknownDB {
		if err := replayErrorFreeContainment(t1, t2, db, out.Counterexample); err != nil {
			return nil, false, fmt.Errorf("verify: internal error: %w", err)
		}
		out.Counterexample = shrinkInputs(out.Counterexample, func(cand relation.Sequence) bool {
			return len(cand) > 0 && replayErrorFreeContainment(t1, t2, db, cand) == nil
		})
	}
	return out, true, nil
}

func sameInputSchema(t1, t2 *core.Machine) error {
	s1, s2 := t1.Schema().In, t2.Schema().In
	if len(s1) != len(s2) {
		return fmt.Errorf("verify: input schemas differ (%s vs %s)", s1, s2)
	}
	for _, d := range s1 {
		if a, ok := s2.Arity(d.Name); !ok || a != d.Arity {
			return fmt.Errorf("verify: input schemas differ on %s", d.Name)
		}
	}
	return nil
}

// replayErrorFreeContainment checks the witness: error-free for t1, not for
// t2.
func replayErrorFreeContainment(t1, t2 *core.Machine, db relation.Instance, seq relation.Sequence) error {
	r1, err := t1.Execute(db, seq)
	if err != nil {
		return err
	}
	if !r1.Valid(core.ErrorFree) {
		return fmt.Errorf("witness run is not error-free for %s", t1.Name())
	}
	r2, err := t2.Execute(db, seq)
	if err != nil {
		return err
	}
	if r2.Valid(core.ErrorFree) {
		return fmt.Errorf("witness run is error-free for %s too", t2.Name())
	}
	return nil
}
