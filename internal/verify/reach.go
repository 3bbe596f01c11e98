package verify

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/relation"
	"repro/internal/sat"
)

// Goal is a sentence ∃x̄ (A₁ ∧ … ∧ Aₖ) where each Aᵢ is a positive or
// negative literal over an output relation, or an inequality (Section 3.2).
type Goal struct {
	Lits []dlog.Literal
}

// ParseGoal parses a goal from a comma-separated literal list, e.g.
// "deliver(X), NOT rejectpay(X)". All variables are implicitly
// existentially quantified.
func ParseGoal(src string) (*Goal, error) {
	r, err := dlog.ParseRule("goal :- " + src)
	if err != nil {
		return nil, err
	}
	return &Goal{Lits: r.Body}, nil
}

// Vars returns the goal's variables in order of first occurrence.
func (g *Goal) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range g.Lits {
		for _, v := range l.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func (g *Goal) String() string {
	parts := make([]string, len(g.Lits))
	for i, l := range g.Lits {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// validate checks the goal uses only output relations (and inequalities).
func (g *Goal) validate(s *core.Schema) error {
	for _, l := range g.Lits {
		switch l.Kind {
		case dlog.LitPos, dlog.LitNeg:
			if !s.Out.Has(l.Atom.Pred) {
				return fmt.Errorf("verify: goal literal %s is not over an output relation", l)
			}
			if a, _ := s.Out.Arity(l.Atom.Pred); a != len(l.Atom.Args) {
				return fmt.Errorf("verify: goal literal %s has wrong arity (schema says %d)", l, a)
			}
		}
	}
	return nil
}

// Holds evaluates the goal against a concrete output instance.
func (g *Goal) Holds(output relation.Instance) bool {
	found := false
	err := dlog.EvalRuleBindings(g.Lits, dlog.MultiDB{output}, func(dlog.Binding) bool {
		found = true
		return false
	})
	if err != nil {
		// Goals with unbound negative-only variables cannot occur after
		// validate + safety of use; treat as not holding.
		return false
	}
	return found
}

// ReachResult is the outcome of a goal-reachability check.
type ReachResult struct {
	// Reachable reports whether some run's last output satisfies the goal.
	Reachable bool
	// Witness is an input sequence whose run achieves the goal (length 2,
	// per the proof of Theorem 3.2; the first step may be empty).
	Witness relation.Sequence
	// WitnessDB is the found database under Options.UnknownDB.
	WitnessDB relation.Instance
	Stats     Stats
}

// ReachGoal decides, per Theorem 3.2, whether some run of the Spocus
// transducer m on database db reaches the goal in its last output. Runs of
// length two suffice because Spocus outputs depend only on the cumulated
// past inputs and the current input.
func ReachGoal(m *core.Machine, db relation.Instance, g *Goal, opts *Options) (*ReachResult, error) {
	return reachGoal(m, db, nil, g, opts)
}

// ReachGoalFrom decides whether the goal is reachable by some continuation
// of the given partial run (the "progress" variation of Section 2.1): the
// seed inputs are those already consumed.
func ReachGoalFrom(m *core.Machine, db relation.Instance, prefix relation.Sequence, g *Goal, opts *Options) (*ReachResult, error) {
	return reachGoal(m, db, prefix, g, opts)
}

func reachGoal(m *core.Machine, db relation.Instance, prefix relation.Sequence, g *Goal, opts *Options) (*ReachResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	if err := requireSpocus(m); err != nil {
		return nil, err
	}
	s := m.Schema()
	if err := g.validate(s); err != nil {
		return nil, err
	}
	t := newTranslator(m, "")
	fixed := map[string]*relation.Rel{}
	free := map[string]int{}
	if len(prefix) > 0 {
		seed := cumulateInputs(m, prefix)
		t.seedPred = map[string]string{}
		for _, d := range s.In {
			p := stepPred("", d.Name, 0)
			t.seedPred[d.Name] = p
			r := seed.Rel(d.Name)
			if r == nil {
				r = relation.NewRel(d.Arity)
			}
			fixed[p] = r
		}
	}
	var lits []fol.Formula
	for _, l := range g.Lits {
		f, err := goalLiteral(t, l, 2)
		if err != nil {
			return nil, err
		}
		lits = append(lits, f)
	}
	sentence := fol.ExistsF(g.Vars(), fol.AndF(lits...))
	t.freePreds(2, free)
	if opts.UnknownDB {
		dbPreds(m, nil, fixed, free)
	} else {
		dbPreds(m, db, fixed, free)
	}
	res, err := solveSub(ctx, opts, &fol.Problem{
		Formula:     sentence,
		Fixed:       fixed,
		Free:        free,
		ExtraConsts: append(m.Constants(), prefixConsts(prefix)...),
		Tag:         m.Fingerprint(),
	})
	if err != nil {
		return nil, err
	}
	out := &ReachResult{Stats: statsOf(res)}
	if res.Status == sat.Unsat {
		return out, nil
	}
	out.Reachable = true
	out.Witness = t.extractInputs(res.Model, 2)
	replayDB := db
	if opts.UnknownDB {
		out.WitnessDB = relation.NewInstance()
		for _, d := range s.DB {
			if r, ok := res.Model[d.Name]; ok {
				out.WitnessDB[d.Name] = r.Clone()
			}
		}
		replayDB = out.WitnessDB
	}
	start := time.Now()
	achieves := func(cand relation.Sequence) bool {
		if len(cand) == 0 {
			return false
		}
		run, err := m.Execute(replayDB, append(prefix.Clone(), cand...))
		return err == nil && g.Holds(run.LastOutput())
	}
	if !achieves(out.Witness) {
		return nil, fmt.Errorf("verify: internal error: goal %s not satisfied by witness run", g)
	}
	out.Witness = shrinkInputs(out.Witness, achieves)
	out.Stats.ReplayTime = time.Since(start)
	return out, nil
}

// goalLiteral translates a goal literal at step j: output atoms become
// their defining formulas.
func goalLiteral(t *translator, l dlog.Literal, j int) (fol.Formula, error) {
	switch l.Kind {
	case dlog.LitNeq:
		return fol.Neq(l.Left, l.Right), nil
	case dlog.LitEq:
		return fol.Eq(l.Left, l.Right), nil
	}
	f, err := t.outputAtom(l.Atom.Pred, l.Atom.Args, j)
	if err != nil {
		return nil, err
	}
	if l.Kind == dlog.LitNeg {
		return fol.NotF(f), nil
	}
	return f, nil
}

// cumulateInputs unions the inputs of a sequence per relation.
func cumulateInputs(m *core.Machine, seq relation.Sequence) relation.Instance {
	out := relation.NewInstance()
	for _, d := range m.Schema().In {
		out.Ensure(d.Name, d.Arity)
	}
	for _, in := range seq {
		out.UnionWith(in)
	}
	return out
}

func prefixConsts(seq relation.Sequence) []relation.Const {
	return seq.ActiveDomain()
}

// Progress suggests next inputs that make the goal immediately satisfied:
// for each candidate single-fact input over the given constant pool, it
// checks whether issuing that input now satisfies the goal in the resulting
// output (the "progress" service of Section 2.1). Facts are returned in
// deterministic order.
func Progress(m *core.Machine, db relation.Instance, prefix relation.Sequence, g *Goal, pool []relation.Const) ([]relation.Fact, error) {
	if err := g.validate(m.Schema()); err != nil {
		return nil, err
	}
	var out []relation.Fact
	for _, d := range m.Schema().In {
		for _, tup := range enumerateTuples(pool, d.Arity) {
			in := relation.NewInstance()
			in.Add(d.Name, tup)
			seq := append(prefix.Clone(), in)
			run, err := m.Execute(db, seq)
			if err != nil {
				return nil, err
			}
			if g.Holds(run.LastOutput()) {
				out = append(out, relation.Fact{Rel: d.Name, Args: tup})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// Condition is one conjunct of a T_past-input sentence (Theorem 3.3): the
// universally closed implication  ∀x̄ (⋀If → ⋁Then)  whose literals range
// over output, database, and state relations. Arbitrary Boolean
// combinations are expressible as lists of Conditions (their CNF).
type Condition struct {
	If   []dlog.Literal
	Then []dlog.Literal
}

// ParseCondition parses "lit, lit => lit, lit" where the left side is a
// conjunction and the right side a disjunction; either side may be empty
// ("=> lit" asserts the disjunction unconditionally).
func ParseCondition(src string) (*Condition, error) {
	parts := strings.SplitN(src, "=>", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("verify: condition %q must contain '=>'", src)
	}
	c := &Condition{}
	if strings.TrimSpace(parts[0]) != "" {
		r, err := dlog.ParseRule("x :- " + parts[0])
		if err != nil {
			return nil, err
		}
		c.If = r.Body
	}
	if strings.TrimSpace(parts[1]) != "" {
		r, err := dlog.ParseRule("x :- " + parts[1])
		if err != nil {
			return nil, err
		}
		c.Then = r.Body
	}
	return c, nil
}

func (c *Condition) String() string {
	lhs := make([]string, len(c.If))
	for i, l := range c.If {
		lhs[i] = l.String()
	}
	rhs := make([]string, len(c.Then))
	for i, l := range c.Then {
		rhs[i] = l.String()
	}
	return strings.Join(lhs, ", ") + " => " + strings.Join(rhs, ", ")
}

// Vars returns all variables of the condition.
func (c *Condition) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, ls := range [][]dlog.Literal{c.If, c.Then} {
		for _, l := range ls {
			for _, v := range l.Vars() {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// validate enforces range restriction: every variable of the condition must
// occur in a positive literal of the If side, so that counterexamples can be
// replayed operationally.
func (c *Condition) validate() error {
	pos := map[string]bool{}
	for _, l := range c.If {
		if l.Kind == dlog.LitPos {
			for _, v := range l.Vars() {
				pos[v] = true
			}
		}
	}
	for _, v := range c.Vars() {
		if !pos[v] {
			return fmt.Errorf("verify: condition %q: variable %s does not occur in a positive If literal", c, v)
		}
	}
	return nil
}

// TemporalResult is the outcome of a Theorem 3.3 check.
type TemporalResult struct {
	// Holds reports whether every run satisfies the sentence at every step.
	Holds bool
	// Counterexample, when the property fails, is an input sequence whose
	// run violates the sentence at its last step.
	Counterexample relation.Sequence
	// CounterexampleDB is the database found under Options.UnknownDB.
	CounterexampleDB relation.Instance
	// Violated names the condition that fails.
	Violated *Condition
	Stats    Stats
}

// CheckTemporal decides, per Theorem 3.3, whether every run of m on db
// satisfies all the given T_past-input conditions at every step. Literals
// range over output, database, and state relations; a state atom past-R(ū)
// holds iff R(ū) was input at some earlier step.
//
// The per-condition subproblems are independent and run across
// Options.Parallelism workers; the first violation found wins and cancels
// the rest. The Holds verdict is independent of parallelism, but which
// condition is reported Violated (and its counterexample) may differ from
// the sequential run when several conditions fail.
func CheckTemporal(m *core.Machine, db relation.Instance, conds []*Condition, opts *Options) (*TemporalResult, error) {
	return CheckTemporalFrom(m, db, nil, conds, opts)
}

// CheckTemporalFrom is the live-monitoring variation of Theorem 3.3: it
// decides whether every continuation of the given partial run (one or more
// further inputs) satisfies all the conditions at each of its future steps.
// Because a Spocus transducer's future behavior depends on the past only
// through the set of cumulated inputs, the prefix enters the reduction as a
// step-0 seed of the past-R translations, and the two-step locality
// argument of Theorem 3.2 applies unchanged. A Holds verdict means the
// property can no longer be violated from this session's state; a reported
// Counterexample is a continuation (not including the prefix) that violates
// the named condition at its last step.
func CheckTemporalFrom(m *core.Machine, db relation.Instance, prefix relation.Sequence, conds []*Condition, opts *Options) (*TemporalResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	if err := requireSpocus(m); err != nil {
		return nil, err
	}
	for _, c := range conds {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	units := make([]unit[*TemporalResult], len(conds))
	for i := range conds {
		c := conds[i]
		units[i] = unit[*TemporalResult]{run: func(ctx context.Context) (*TemporalResult, bool, error) {
			return checkOneCondition(ctx, m, db, prefix, c, opts)
		}}
	}
	found, ok, err := searchFirst(ctx, opts.workers(), units)
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	return &TemporalResult{Holds: true}, nil
}

// checkOneCondition decides a single T_past-input condition; it returns the
// populated violation result when the condition fails on some run that
// continues the (possibly empty) prefix.
func checkOneCondition(ctx context.Context, m *core.Machine, db relation.Instance, prefix relation.Sequence, c *Condition, opts *Options) (*TemporalResult, bool, error) {
	s := m.Schema()
	t := newTranslator(m, "")
	fixed := map[string]*relation.Rel{}
	if len(prefix) > 0 {
		seed := cumulateInputs(m, prefix)
		t.seedPred = map[string]string{}
		for _, d := range s.In {
			p := stepPred("", d.Name, 0)
			t.seedPred[d.Name] = p
			r := seed.Rel(d.Name)
			if r == nil {
				r = relation.NewRel(d.Arity)
			}
			fixed[p] = r
		}
	}
	// Violation sentence: ∃x̄ (⋀If ∧ ⋀¬Then) at the last step of a
	// two-step run (Theorem 3.2's locality argument).
	var lits []fol.Formula
	add := func(l dlog.Literal, negate bool) error {
		f, err := temporalLiteral(t, s, l, 2)
		if err != nil {
			return err
		}
		if negate {
			f = fol.NotF(f)
		}
		lits = append(lits, f)
		return nil
	}
	for _, l := range c.If {
		if err := add(l, false); err != nil {
			return nil, false, err
		}
	}
	for _, l := range c.Then {
		if err := add(l, true); err != nil {
			return nil, false, err
		}
	}
	sentence := fol.ExistsF(c.Vars(), fol.AndF(lits...))
	free := map[string]int{}
	t.freePreds(2, free)
	if opts.UnknownDB {
		dbPreds(m, nil, fixed, free)
	} else {
		dbPreds(m, db, fixed, free)
	}
	res, err := solveSub(ctx, opts, &fol.Problem{
		Formula:     sentence,
		Fixed:       fixed,
		Free:        free,
		ExtraConsts: append(m.Constants(), prefixConsts(prefix)...),
		Tag:         m.Fingerprint(),
	})
	if err != nil {
		return nil, false, err
	}
	if res.Status == sat.Unsat {
		return nil, false, nil
	}
	total := &TemporalResult{Stats: statsOf(res)}
	total.Violated = c
	total.Counterexample = t.extractInputs(res.Model, 2)
	replayDB := db
	if opts.UnknownDB {
		total.CounterexampleDB = relation.NewInstance()
		for _, d := range s.DB {
			if r, ok := res.Model[d.Name]; ok {
				total.CounterexampleDB[d.Name] = r.Clone()
			}
		}
		replayDB = total.CounterexampleDB
	}
	// The counterexample is the continuation only; replay prepends the
	// prefix so the violation is checked on the actual resumed run.
	start := time.Now()
	violates := func(cand relation.Sequence) bool {
		full := append(prefix.Clone(), cand...)
		return replayTemporalViolation(m, replayDB, full, c) == nil
	}
	if !violates(total.Counterexample) {
		return nil, false, fmt.Errorf("verify: internal error: counterexample does not violate %s on replay", c)
	}
	total.Counterexample = shrinkInputs(total.Counterexample, func(cand relation.Sequence) bool {
		return len(cand) > 0 && violates(cand)
	})
	total.Stats.ReplayTime = time.Since(start)
	return total, true, nil
}

// temporalLiteral translates a T_past-input literal at step j (literals over
// out, db, and state).
func temporalLiteral(t *translator, s *core.Schema, l dlog.Literal, j int) (fol.Formula, error) {
	switch l.Kind {
	case dlog.LitNeq:
		return fol.Neq(l.Left, l.Right), nil
	case dlog.LitEq:
		return fol.Eq(l.Left, l.Right), nil
	}
	a := l.Atom
	var f fol.Formula
	var err error
	switch {
	case s.Out.Has(a.Pred):
		f, err = t.outputAtom(a.Pred, a.Args, j)
		if err != nil {
			return nil, err
		}
	case s.State.Has(a.Pred):
		base, ok := s.PastBase(a.Pred)
		if !ok {
			return nil, fmt.Errorf("verify: state relation %s is not past-R", a.Pred)
		}
		// T_past-input sentences read the post-transition state Sⱼ: "R(ū)
		// has been input sometime in the past" includes the current step.
		f = t.pastAtomInclusive(base, a.Args, j)
	case s.DB.Has(a.Pred):
		f = fol.AtomF(a.Pred, a.Args...)
	default:
		return nil, fmt.Errorf("verify: temporal literal %s must be over output, database, or state relations", l)
	}
	if l.Kind == dlog.LitNeg {
		return fol.NotF(f), nil
	}
	return f, nil
}

// replayTemporalViolation checks that the counterexample run really violates
// the condition at its last step.
func replayTemporalViolation(m *core.Machine, db relation.Instance, seq relation.Sequence, c *Condition) error {
	run, err := m.Execute(db, seq)
	if err != nil {
		return err
	}
	last := run.Len() - 1
	// The condition is evaluated over output ∪ db ∪ state at the last
	// stage, where state is the post-transition Sₗₐₛₜ (cumulated inputs of
	// steps ≤ last) — run.States already records post-transition states.
	violated, err := violates(dlog.MultiDB{run.Outputs[last], run.States[last], db}, c)
	if err != nil {
		return err
	}
	if !violated {
		return fmt.Errorf("counterexample does not violate %s at last step", c)
	}
	return nil
}

// violates reports whether some binding satisfies the condition's If side
// and falsifies every Then literal over the view.
func violates(view dlog.MultiDB, c *Condition) (bool, error) {
	body := append([]dlog.Literal{}, c.If...)
	for _, l := range c.Then {
		neg := l
		switch l.Kind {
		case dlog.LitPos:
			neg.Kind = dlog.LitNeg
		case dlog.LitNeg:
			neg.Kind = dlog.LitPos
		case dlog.LitNeq:
			neg.Kind = dlog.LitEq
		case dlog.LitEq:
			neg.Kind = dlog.LitNeq
		}
		body = append(body, neg)
	}
	violated := false
	err := dlog.EvalRuleBindings(body, view, func(dlog.Binding) bool {
		violated = true
		return false
	})
	return violated, err
}
