// Package verify implements the paper's decision procedures for Spocus
// transducers by reduction to finite satisfiability of Bernays–Schönfinkel
// (∃*∀*FO) sentences, exactly as in the proofs of Theorems 3.1–3.5 and
// 4.4–4.6:
//
//   - LogValidity (Theorem 3.1): is a partial log generated by some input
//     sequence?
//   - ReachGoal (Theorem 3.2): can a goal over the output relations be
//     satisfied by the last output of some run? Runs of length two suffice.
//   - CheckTemporal (Theorem 3.3): do all runs satisfy a T_past-input
//     sentence?
//   - Contains (Theorem 3.5 / Corollary 3.6): customization containment of
//     valid logs when the reference transducer has a full log.
//   - CheckErrorFree (Theorem 4.4): do all error-free runs satisfy a T_sdi
//     sentence? Runs of length k+1 suffice when error rules contain no
//     negative state literal.
//   - ErrorFreeContained (Theorem 4.6): containment of error-free runs under
//     the same restriction.
//   - RemovableFromLog: the paper's log-minimization discussion (§2.1),
//     decided up to a run-length bound.
//
// Every satisfiable answer carries a witness input sequence that is replayed
// through the actual transducer (ReplayCheck) so encoder and engine validate
// each other.
package verify

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/relation"
)

// stepPred names the j-th replica of an input relation, optionally under a
// run prefix (used when a sentence speaks about two runs at once). The '@'
// cannot occur in parsed relation names, so replicas never collide.
func stepPred(prefix, rel string, j int) string {
	if prefix == "" {
		return fmt.Sprintf("%s@%d", rel, j)
	}
	return fmt.Sprintf("%s·%s@%d", prefix, rel, j)
}

// translator turns Spocus rule bodies into formulas over a replicated input
// schema: at step j an input atom R(ū) becomes R@j(ū) and a state atom
// past-R(ū) becomes R@1(ū) ∨ … ∨ R@(j-1)(ū). Database atoms stay unchanged
// (they are fixed or free predicates of the satisfiability problem).
type translator struct {
	m      *core.Machine
	prefix string
	// seed optionally supplies pre-run state contents: seed[R] is added as
	// a fixed disjunct of every past-R translation (used for reachability
	// after a partial run). Keys are *input* relation names.
	seedPred map[string]string
	fresh    int
}

func newTranslator(m *core.Machine, prefix string) *translator {
	return &translator{m: m, prefix: prefix}
}

// inputAtom builds the replica atom for input relation rel at step j.
func (t *translator) inputAtom(rel string, args []dlog.Term, j int) fol.Formula {
	return fol.AtomF(stepPred(t.prefix, rel, j), args...)
}

// pastAtom translates past-R(ū) at step j as seen by the transition
// functions (the pre-state Sⱼ₋₁): the union of steps 1..j-1 plus the
// optional seed relation.
func (t *translator) pastAtom(rel string, args []dlog.Term, j int) fol.Formula {
	return t.pastAtomUpTo(rel, args, j-1)
}

// pastAtomInclusive translates past-R(ū) as it stands at stage j AFTER the
// transition (the post-state Sⱼ, which includes step j's input). This is the
// reading of T_past-input sentences in Theorem 3.3: the paper's example "no
// delivery before payment" holds of short only because the delivering
// step's own pay input already counts as past.
func (t *translator) pastAtomInclusive(rel string, args []dlog.Term, j int) fol.Formula {
	return t.pastAtomUpTo(rel, args, j)
}

func (t *translator) pastAtomUpTo(rel string, args []dlog.Term, last int) fol.Formula {
	var ds []fol.Formula
	if t.seedPred != nil {
		if p, ok := t.seedPred[rel]; ok {
			ds = append(ds, fol.AtomF(p, args...))
		}
	}
	for i := 1; i <= last; i++ {
		ds = append(ds, t.inputAtom(rel, args, i))
	}
	return fol.OrF(ds...)
}

// literal translates one body literal at step j.
func (t *translator) literal(l dlog.Literal, j int) (fol.Formula, error) {
	switch l.Kind {
	case dlog.LitNeq:
		return fol.Neq(l.Left, l.Right), nil
	case dlog.LitEq:
		return fol.Eq(l.Left, l.Right), nil
	}
	a := l.Atom
	s := t.m.Schema()
	var f fol.Formula
	switch {
	case s.In.Has(a.Pred):
		f = t.inputAtom(a.Pred, a.Args, j)
	case s.State.Has(a.Pred):
		base, ok := s.PastBase(a.Pred)
		if !ok {
			return nil, fmt.Errorf("verify: state relation %s is not a past-R relation; only Spocus machines are supported", a.Pred)
		}
		f = t.pastAtom(base, a.Args, j)
	case s.DB.Has(a.Pred):
		f = fol.AtomF(a.Pred, a.Args...)
	default:
		return nil, fmt.Errorf("verify: rule references unknown relation %s", a.Pred)
	}
	if l.Kind == dlog.LitNeg {
		return fol.NotF(f), nil
	}
	return f, nil
}

// body translates a whole rule body at step j, conjoining the literals.
func (t *translator) body(body []dlog.Literal, j int) (fol.Formula, error) {
	var fs []fol.Formula
	for _, l := range body {
		f, err := t.literal(l, j)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fol.AndF(fs...), nil
}

// outputAtom builds φ_Q^j(args): the formula asserting that the output
// relation Q contains the tuple denoted by args at step j. It is the
// disjunction over Q's rules of the translated body with head variables
// bound to args and body-only variables existentially quantified.
func (t *translator) outputAtom(q string, args []dlog.Term, j int) (fol.Formula, error) {
	rules := t.m.OutputRules().RulesFor(q)
	var ds []fol.Formula
	for _, r := range rules {
		f, err := t.ruleInstance(r, args, j)
		if err != nil {
			return nil, err
		}
		ds = append(ds, f)
	}
	return fol.OrF(ds...), nil
}

// ruleInstance translates one output rule with its head unified against
// args: head variables are substituted by the corresponding arg terms
// (repeated head variables and constant head arguments contribute equality
// conjuncts), and remaining body variables are renamed fresh and
// existentially quantified.
func (t *translator) ruleInstance(r dlog.Rule, args []dlog.Term, j int) (fol.Formula, error) {
	if len(args) != len(r.Head.Args) {
		return nil, fmt.Errorf("verify: %s expects %d arguments, got %d", r.Head.Pred, len(r.Head.Args), len(args))
	}
	sub := map[string]dlog.Term{}
	var eqs []fol.Formula
	for i, h := range r.Head.Args {
		a := args[i]
		if !h.Var {
			eqs = append(eqs, fol.Eq(a, h))
			continue
		}
		if prev, ok := sub[h.Name]; ok {
			eqs = append(eqs, fol.Eq(a, prev))
			continue
		}
		sub[h.Name] = a
	}
	// Rename body-only variables fresh.
	var exVars []string
	for _, v := range r.Vars() {
		if _, ok := sub[v]; ok {
			continue
		}
		t.fresh++
		nv := fmt.Sprintf("%s·%d", v, t.fresh)
		sub[v] = dlog.V(nv)
		exVars = append(exVars, nv)
	}
	renamed := substituteBody(r.Body, sub)
	bf, err := t.body(renamed, j)
	if err != nil {
		return nil, err
	}
	return fol.ExistsF(exVars, fol.AndF(append(eqs, bf)...)), nil
}

// substituteBody applies a term substitution to every literal of a body.
func substituteBody(body []dlog.Literal, sub map[string]dlog.Term) []dlog.Literal {
	st := func(tm dlog.Term) dlog.Term {
		if tm.Var {
			if r, ok := sub[tm.Name]; ok {
				return r
			}
		}
		return tm
	}
	out := make([]dlog.Literal, len(body))
	for i, l := range body {
		nl := l
		switch l.Kind {
		case dlog.LitPos, dlog.LitNeg:
			argsCopy := make([]dlog.Term, len(l.Atom.Args))
			for k, a := range l.Atom.Args {
				argsCopy[k] = st(a)
			}
			nl.Atom = dlog.Atom{Pred: l.Atom.Pred, Args: argsCopy}
		default:
			nl.Left = st(l.Left)
			nl.Right = st(l.Right)
		}
		out[i] = nl
	}
	return out
}

// noErrorAt builds the formula asserting that the machine derives no error
// fact at step j: for every error rule, ∀ȳ ¬body. (The paper's ψ_error.)
func (t *translator) noErrorAt(j int) (fol.Formula, error) {
	var fs []fol.Formula
	for _, r := range t.m.ErrorRules() {
		bf, err := t.body(r.Body, j)
		if err != nil {
			return nil, err
		}
		fs = append(fs, fol.ForallF(r.Vars(), fol.NotF(bf)))
	}
	return fol.AndF(fs...), nil
}

// freePreds declares the replicated input predicates of steps 1..n as free
// predicates of the satisfiability problem.
func (t *translator) freePreds(n int, free map[string]int) {
	for _, d := range t.m.Schema().In {
		for j := 1; j <= n; j++ {
			free[stepPred(t.prefix, d.Name, j)] = d.Arity
		}
	}
}

// dbPreds registers the database relations: fixed extensions when db is
// known, free predicates otherwise.
func dbPreds(m *core.Machine, db relation.Instance, fixed map[string]*relation.Rel, free map[string]int) {
	for _, d := range m.Schema().DB {
		if db != nil {
			r := db.Rel(d.Name)
			if r == nil {
				r = relation.NewRel(d.Arity)
			}
			fixed[d.Name] = r
		} else {
			free[d.Name] = d.Arity
		}
	}
}

// extractInputs reads a witness input sequence for steps 1..n out of a
// solver model.
func (t *translator) extractInputs(model map[string]*relation.Rel, n int) relation.Sequence {
	seq := make(relation.Sequence, n)
	for j := 1; j <= n; j++ {
		in := relation.NewInstance()
		for _, d := range t.m.Schema().In {
			if r, ok := model[stepPred(t.prefix, d.Name, j)]; ok && r.Len() > 0 {
				in.Ensure(d.Name, d.Arity).UnionWith(r)
			}
		}
		seq[j-1] = in
	}
	return seq
}

// requireSpocus rejects machines outside the class the decision procedures
// are proved for.
func requireSpocus(m *core.Machine) error {
	if m.Kind() != core.KindSpocus {
		return fmt.Errorf("verify: %s machine %q: decision procedures require a Spocus transducer (Proposition 3.1 and Theorem 3.4 show the extensions undecidable)", m.Kind(), m.Name())
	}
	return nil
}
