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

// MinimizeResult is the outcome of a log-minimization query.
type MinimizeResult struct {
	// Removable reports that, for all runs up to the length bound, the
	// values of the queried relation are determined by the rest of the log
	// (so dropping it from the log loses no information).
	Removable bool
	// WitnessA and WitnessB, when not removable, are two input sequences
	// whose reduced logs agree at every step while the queried relation's
	// log values differ at the last step.
	WitnessA, WitnessB relation.Sequence
	Stats              Stats
}

// RemovableFromLog decides the log-minimization question of Section 2.1
// ("one can remove the relation deliver from the log of short without
// losing any information"): whether the log values of relation name are
// determined by the remaining logged relations, for all runs of length at
// most maxLen. The check is a bounded determinacy test: it searches for two
// runs with identical reduced logs whose name-values differ, using a
// sentence over two replicated copies of the input schema. Unlike the
// paper's decision procedures this one is length-bounded; a negative answer
// (Removable) is definitive only up to maxLen.
func RemovableFromLog(m *core.Machine, db relation.Instance, name string, maxLen int, opts *Options) (*MinimizeResult, error) {
	opts = opts.orDefault()
	if err := requireSpocus(m); err != nil {
		return nil, err
	}
	s := m.Schema()
	if !s.Logged(name) {
		return nil, fmt.Errorf("verify: %s is not a logged relation", name)
	}
	ctx, cancel := opts.begin()
	defer cancel()

	// One independent subproblem per run length: length-n determinacy does
	// not depend on any other length, so the lengths fan out across the
	// worker pool with first-witness-wins. Sequentially the shortest
	// differing length is found first; in parallel any differing length may
	// win (the witness is replay-shrunk either way), but Removable itself —
	// all lengths unsatisfiable — is order-independent.
	subStats := make([]Stats, maxLen)
	units := make([]unit[*MinimizeResult], 0, maxLen)
	for n := 1; n <= maxLen; n++ {
		n := n
		units = append(units, unit[*MinimizeResult]{run: func(ctx context.Context) (*MinimizeResult, bool, error) {
			ta := newTranslator(m, "a")
			tb := newTranslator(m, "b")
			var conj []fol.Formula
			// Reduced logs equal at steps 1..n.
			for j := 1; j <= n; j++ {
				for _, q := range s.Log {
					if q == name {
						continue
					}
					eq, err := valuesEqual(ta, tb, s, q, j)
					if err != nil {
						return nil, false, err
					}
					conj = append(conj, eq)
				}
			}
			// name differs at step n.
			diff, err := valuesDiffer(ta, tb, s, name, n)
			if err != nil {
				return nil, false, err
			}
			conj = append(conj, diff)

			fixed := map[string]*relation.Rel{}
			free := map[string]int{}
			ta.freePreds(n, free)
			tb.freePreds(n, free)
			dbPreds(m, db, fixed, free)
			// Output-value equivalence between the two runs is a genuine ∀∃
			// sentence (body variables of output rules sit under the universal
			// tuple quantifier), outside ∃*∀*FO — consistent with the paper
			// leaving log minimization open. FiniteDomain expands those inner
			// existentials over the explicit domain, making this a bounded
			// check in the domain as well as in the run length.
			res, err := solveSub(ctx, opts, &fol.Problem{
				Formula:      fol.AndF(conj...),
				Fixed:        fixed,
				Free:         free,
				ExtraConsts:  m.Constants(),
				FiniteDomain: true,
				Tag:          m.Fingerprint(),
			})
			if err != nil {
				return nil, false, err
			}
			subStats[n-1] = statsOf(res)
			if res.Status == sat.Unsat {
				return nil, false, nil
			}
			out := &MinimizeResult{Stats: statsOf(res)}
			out.WitnessA = ta.extractInputs(res.Model, n)
			out.WitnessB = tb.extractInputs(res.Model, n)
			if err := replayDeterminacy(m, db, out.WitnessA, out.WitnessB, name); err != nil {
				return nil, false, fmt.Errorf("verify: internal error: %w", err)
			}
			out.WitnessA, out.WitnessB = shrinkPair(out.WitnessA, out.WitnessB, func(a, b relation.Sequence) bool {
				return replayDeterminacy(m, db, a, b, name) == nil
			})
			return out, true, nil
		}})
	}
	found, ok, err := searchFirst(ctx, opts.workers(), units)
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	out := &MinimizeResult{Removable: true}
	if maxLen > 0 {
		out.Stats = subStats[maxLen-1]
	}
	return out, nil
}

// MinimalLog greedily removes relations from the log (in reverse declaration
// order) that RemovableFromLog deems determined by the rest, returning a
// minimal sufficient log up to the length bound.
func MinimalLog(m *core.Machine, db relation.Instance, maxLen int, opts *Options) ([]string, error) {
	keep := append([]string{}, m.Schema().Log...)
	for i := len(keep) - 1; i >= 0; i-- {
		candidate := keep[i]
		trimmed := m.Schema().Clone()
		trimmed.Log = append(append([]string{}, keep[:i]...), keep[i+1:]...)
		trimmed.State = nil
		reduced, err := core.NewSpocus(trimmed, m.OutputRules())
		if err != nil {
			return nil, err
		}
		reduced.SetName(m.Name() + "-minlog")
		// Is candidate determined by the remaining log? Test on a machine
		// that still logs it, with the reduced set as "the rest".
		full := m.Schema().Clone()
		full.Log = append(append([]string{}, trimmed.Log...), candidate)
		full.State = nil
		probe, err := core.NewSpocus(full, m.OutputRules())
		if err != nil {
			return nil, err
		}
		res, err := RemovableFromLog(probe, db, candidate, maxLen, opts)
		if err != nil {
			return nil, err
		}
		if res.Removable {
			keep = append(keep[:i], keep[i+1:]...)
		}
	}
	return keep, nil
}

// valuesEqual builds ∀x̄ (vA(x̄) ↔ vB(x̄)) for logged relation q at step j.
func valuesEqual(ta, tb *translator, s *core.Schema, q string, j int) (fol.Formula, error) {
	arity, _ := s.Arity(q)
	vars := make([]string, arity)
	terms := make([]dlog.Term, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("E%s·%d·%d", q, j, i)
		terms[i] = dlog.V(vars[i])
	}
	va, err := logValueAt(ta, s, q, j)
	if err != nil {
		return nil, err
	}
	vb, err := logValueAt(tb, s, q, j)
	if err != nil {
		return nil, err
	}
	fa, err := va(terms)
	if err != nil {
		return nil, err
	}
	fb, err := vb(terms)
	if err != nil {
		return nil, err
	}
	return fol.ForallF(vars, fol.AndF(fol.Implies(fa, fb), fol.Implies(fb, fa))), nil
}

// valuesDiffer builds ∃x̄ (vA ⊕ vB) for logged relation q at step j.
func valuesDiffer(ta, tb *translator, s *core.Schema, q string, j int) (fol.Formula, error) {
	arity, _ := s.Arity(q)
	vars := make([]string, arity)
	terms := make([]dlog.Term, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%s·%d·%d", q, j, i)
		terms[i] = dlog.V(vars[i])
	}
	va, err := logValueAt(ta, s, q, j)
	if err != nil {
		return nil, err
	}
	vb, err := logValueAt(tb, s, q, j)
	if err != nil {
		return nil, err
	}
	fa, err := va(terms)
	if err != nil {
		return nil, err
	}
	fb, err := vb(terms)
	if err != nil {
		return nil, err
	}
	return fol.OrF(
		fol.ExistsF(vars, fol.AndF(fa, fol.NotF(fb))),
		fol.ExistsF(vars, fol.AndF(fol.NotF(fa), fb)),
	), nil
}

// replayDeterminacy checks the two witness runs: reduced logs equal at all
// steps, the target relation differing at the last.
func replayDeterminacy(m *core.Machine, db relation.Instance, a, b relation.Sequence, name string) error {
	ra, err := m.Execute(db, a)
	if err != nil {
		return err
	}
	rb, err := m.Execute(db, b)
	if err != nil {
		return err
	}
	s := m.Schema()
	n := len(a)
	for j := 0; j < n; j++ {
		for _, q := range s.Log {
			if q == name {
				continue
			}
			arity, _ := s.Arity(q)
			if !relOrEmpty(ra.Logs[j], q, arity).Equal(relOrEmpty(rb.Logs[j], q, arity)) {
				return fmt.Errorf("reduced logs differ at step %d on %s", j+1, q)
			}
		}
	}
	arity, _ := s.Arity(name)
	if relOrEmpty(ra.Logs[n-1], name, arity).Equal(relOrEmpty(rb.Logs[n-1], name, arity)) {
		return fmt.Errorf("target relation %s does not differ at last step", name)
	}
	return nil
}
