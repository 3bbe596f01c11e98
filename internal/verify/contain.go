package verify

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/relation"
	"repro/internal/sat"
)

// ContainResult is the outcome of a Theorem 3.5 containment check.
type ContainResult struct {
	// Contained reports whether every valid log of the candidate is a valid
	// log of the reference.
	Contained bool
	// Counterexample, when containment fails, is a two-step input sequence
	// over the candidate's inputs on which the logs differ at the last step.
	Counterexample relation.Sequence
	// DiffersAt names a logged relation whose values differ.
	DiffersAt string
	Stats     Stats
}

// Contains decides, per Theorem 3.5, whether reference ⊒ candidate: every
// valid log of the candidate transducer is also a valid log of the
// reference. Preconditions (from the theorem): the reference's inputs are a
// subset of the candidate's; both declare the same log relations; and every
// reference input is logged (so a log determines the reference's inputs).
// Under these conditions non-containment is witnessed by a two-step input
// sequence over the candidate's inputs whose candidate log differs from the
// reference log of its restriction — which this procedure searches for via
// an ∃*∀*FO sentence over two copies of the candidate's input schema.
func Contains(reference, candidate *core.Machine, db relation.Instance, opts *Options) (*ContainResult, error) {
	opts = opts.orDefault()
	if err := requireSpocus(reference); err != nil {
		return nil, err
	}
	if err := requireSpocus(candidate); err != nil {
		return nil, err
	}
	s1, s2 := reference.Schema(), candidate.Schema()
	for _, d := range s1.In {
		if a, ok := s2.In.Arity(d.Name); !ok || a != d.Arity {
			return nil, fmt.Errorf("verify: reference input %s/%d is not an input of the candidate (Theorem 3.5 requires in₁ ⊆ in₂)", d.Name, d.Arity)
		}
	}
	if !sameLogSet(s1.Log, s2.Log) {
		return nil, fmt.Errorf("verify: transducers must declare the same log relations (%v vs %v)", s1.Log, s2.Log)
	}
	for _, d := range s1.In {
		if !s1.Logged(d.Name) {
			return nil, fmt.Errorf("verify: reference input %s is not logged (Theorem 3.5 requires in₁ ⊆ log)", d.Name)
		}
	}

	ctx, cancel := opts.begin()
	defer cancel()

	t1 := newTranslator(reference, "")
	t2 := newTranslator(candidate, "")
	// Shared input replicas: in₁ relations use identical predicate names in
	// both translators, so the reference automatically reads the restriction
	// of the candidate's inputs.
	var diffs []fol.Formula
	for _, name := range s1.Log {
		arity := logArity(s1, s2, name)
		if arity < 0 {
			return nil, fmt.Errorf("verify: logged relation %s has inconsistent arity between the transducers", name)
		}
		v1, err := logValueAt(t1, s1, name, 2)
		if err != nil {
			return nil, err
		}
		v2, err := logValueAt(t2, s2, name, 2)
		if err != nil {
			return nil, err
		}
		vars := make([]string, arity)
		terms := make([]dlog.Term, arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("D%s·%d", name, i)
			terms[i] = dlog.V(vars[i])
		}
		f1, err := v1(terms)
		if err != nil {
			return nil, err
		}
		f2, err := v2(terms)
		if err != nil {
			return nil, err
		}
		diffs = append(diffs,
			fol.ExistsF(vars, fol.AndF(f1, fol.NotF(f2))),
			fol.ExistsF(vars, fol.AndF(fol.NotF(f1), f2)),
		)
	}

	fixed := map[string]*relation.Rel{}
	free := map[string]int{}
	t2.freePreds(2, free) // covers in₂ ⊇ in₁
	if opts.UnknownDB {
		dbPreds(reference, nil, fixed, free)
		dbPreds(candidate, nil, fixed, free)
	} else {
		dbPreds(reference, db, fixed, free)
		dbPreds(candidate, db, fixed, free)
	}
	consts := append(reference.Constants(), candidate.Constants()...)
	tag := reference.Fingerprint() + "+" + candidate.Fingerprint()

	// Each diff disjunct is a closed ∃*∀*FO sentence, and the original
	// Or-sentence is satisfiable iff some disjunct is — so the disjuncts are
	// sound independent subproblems. Fan them out; the first satisfiable one
	// wins. Per-unit grounding stats are folded into the Contained verdict's
	// Stats (Vars/Clauses summed across units, DomainSize the maximum).
	subStats := make([]Stats, len(diffs))
	units := make([]unit[*ContainResult], len(diffs))
	for i, diff := range diffs {
		i, diff := i, diff
		units[i].run = func(ctx context.Context) (*ContainResult, bool, error) {
			res, err := solveSub(ctx, opts, &fol.Problem{
				Formula:     diff,
				Fixed:       fixed,
				Free:        free,
				ExtraConsts: consts,
				Tag:         tag,
			})
			if err != nil {
				return nil, false, err
			}
			subStats[i] = statsOf(res)
			if res.Status == sat.Unsat {
				return nil, false, nil
			}
			out := &ContainResult{Stats: statsOf(res)}
			out.Counterexample = t2.extractInputs(res.Model, 2)
			if !opts.UnknownDB {
				name, err := replayContainmentDiff(reference, candidate, db, out.Counterexample)
				if err != nil {
					return nil, false, fmt.Errorf("verify: internal error: %w", err)
				}
				out.Counterexample = shrinkInputs(out.Counterexample, func(cand relation.Sequence) bool {
					if len(cand) != 2 {
						return false
					}
					_, err := replayContainmentDiff(reference, candidate, db, cand)
					return err == nil
				})
				name, err = replayContainmentDiff(reference, candidate, db, out.Counterexample)
				if err != nil {
					return nil, false, fmt.Errorf("verify: internal error after shrink: %w", err)
				}
				out.DiffersAt = name
			}
			return out, true, nil
		}
	}
	found, ok, err := searchFirst(ctx, opts.workers(), units)
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	out := &ContainResult{Contained: true}
	for _, st := range subStats {
		out.Stats.Vars += st.Vars
		out.Stats.Clauses += st.Clauses
		if st.DomainSize > out.Stats.DomainSize {
			out.Stats.DomainSize = st.DomainSize
		}
	}
	return out, nil
}

// Equivalent decides log equivalence via two containment checks
// (Corollary 3.6: decidable for transducers over the same schema with full
// log; more generally whenever both directions meet Theorem 3.5's
// preconditions).
func Equivalent(t1, t2 *core.Machine, db relation.Instance, opts *Options) (bool, *ContainResult, *ContainResult, error) {
	opts = opts.orDefault()
	if opts.workers() > 1 {
		// The two containment directions are independent; run them
		// concurrently, each with its own internal fan-out sharing the same
		// worker budget. Both must complete (no early exit: callers inspect
		// both results), so errors are surfaced after joining.
		var r12, r21 *ContainResult
		var err12, err21 error
		done := make(chan struct{})
		go func() {
			defer close(done)
			r21, err21 = Contains(t2, t1, db, opts)
		}()
		r12, err12 = Contains(t1, t2, db, opts)
		<-done
		if err12 != nil {
			return false, nil, nil, err12
		}
		if err21 != nil {
			return false, r12, nil, err21
		}
		return r12.Contained && r21.Contained, r12, r21, nil
	}
	r12, err := Contains(t1, t2, db, opts)
	if err != nil {
		return false, nil, nil, err
	}
	r21, err := Contains(t2, t1, db, opts)
	if err != nil {
		return false, r12, nil, err
	}
	return r12.Contained && r21.Contained, r12, r21, nil
}

func sameLogSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return true
}

func logArity(s1, s2 *core.Schema, name string) int {
	a1, ok1 := s1.Arity(name)
	a2, ok2 := s2.Arity(name)
	if !ok1 || !ok2 || a1 != a2 {
		return -1
	}
	return a1
}

// logValueAt returns the "tuple ∈ log value of name at step j" formula
// builder for one machine.
func logValueAt(t *translator, s *core.Schema, name string, j int) (func([]dlog.Term) (fol.Formula, error), error) {
	switch {
	case s.In.Has(name):
		return func(args []dlog.Term) (fol.Formula, error) {
			return t.inputAtom(name, args, j), nil
		}, nil
	case s.Out.Has(name):
		return func(args []dlog.Term) (fol.Formula, error) {
			return t.outputAtom(name, args, j)
		}, nil
	}
	return nil, fmt.Errorf("verify: logged relation %s is neither input nor output", name)
}

// replayContainmentDiff runs both machines on the counterexample (the
// candidate on the full inputs, the reference on their restriction) and
// returns the name of a logged relation on which the final logs differ.
func replayContainmentDiff(reference, candidate *core.Machine, db relation.Instance, inputs relation.Sequence) (string, error) {
	restricted := inputs.Restrict(reference.Schema().In.Names())
	runRef, err := reference.Execute(db, restricted)
	if err != nil {
		return "", err
	}
	runCand, err := candidate.Execute(db, inputs)
	if err != nil {
		return "", err
	}
	last := len(inputs) - 1
	for _, name := range reference.Schema().Log {
		a, _ := reference.Schema().Arity(name)
		r1 := relOrEmpty(runRef.Logs[last], name, a)
		r2 := relOrEmpty(runCand.Logs[last], name, a)
		if !r1.Equal(r2) {
			return name, nil
		}
	}
	return "", fmt.Errorf("counterexample logs do not differ at last step:\nref:  %s\ncand: %s", runRef.Logs[last], runCand.Logs[last])
}

func relOrEmpty(in relation.Instance, name string, arity int) *relation.Rel {
	if r := in.Rel(name); r != nil {
		return r
	}
	return relation.NewRel(arity)
}
