package verify

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/relation"
	"repro/internal/sat"
)

// Options tune the decision procedures.
type Options struct {
	// UnknownDB treats the database relations as unknown (free predicates):
	// the procedure decides whether there EXISTS a database making the
	// answer positive, the variation noted after Theorem 3.1.
	UnknownDB bool
	// MaxConflicts bounds the SAT search; 0 means unlimited. When the
	// budget is exhausted the procedures return ErrBudget.
	MaxConflicts int64
	// Parallelism is the number of SAT subproblems solved concurrently by
	// procedures that decompose into independent questions (per-condition,
	// per-clause, per-run-length, per-candidate). 0 and 1 mean strictly
	// sequential evaluation in declaration order; negative means
	// GOMAXPROCS. The decision (and any error under an unlimited budget) is
	// identical to the sequential one; the witness or counterexample may
	// differ, since the first subproblem to find one wins and cancels the
	// rest. See DESIGN.md §3.4.
	Parallelism int
	// Timeout bounds the wall-clock time of one procedure call; 0 means no
	// deadline. An expired deadline surfaces as context.DeadlineExceeded.
	Timeout time.Duration
	// Context, when non-nil, cancels in-flight grounding and SAT search; a
	// cancelled call returns the context's error. Nil means Background.
	Context context.Context
	// Cache, when non-nil, memoizes solved subproblems keyed by their full
	// grounding input, so repeated questions (same transducer, sentence, and
	// run length across procedures or calls) skip the solver entirely. It
	// is safe for concurrent use and may be shared between procedures.
	Cache *Cache
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// begin derives the call's context from Options.Context and Options.Timeout.
// The returned cancel func must be called when the procedure finishes.
func (o *Options) begin() (context.Context, context.CancelFunc) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return context.WithCancel(ctx)
}

// ErrBudget is returned when MaxConflicts is exhausted before a decision.
var ErrBudget = fmt.Errorf("verify: SAT conflict budget exhausted")

// Stats reports the size of a grounded decision problem and, for the
// solve behind a single verdict, where its time went: grounding, SAT search
// (with the search's decisions and conflicts) and the operational replay
// and shrinking of the witness. The times are zero when the subproblem was
// answered from Options.Cache, and for verdicts that fold several
// subproblems together.
type Stats struct {
	DomainSize int
	Vars       int
	Clauses    int

	GroundTime, SolveTime, ReplayTime time.Duration
	Decisions, Conflicts              uint64
}

func statsOf(res *fol.Result) Stats {
	return Stats{
		DomainSize: len(res.Domain), Vars: res.Vars, Clauses: res.Clauses,
		GroundTime: res.GroundTime, SolveTime: res.SolveTime,
		Decisions: res.Decisions, Conflicts: res.Conflicts,
	}
}

// LogValidityResult is the outcome of a Theorem 3.1 check.
type LogValidityResult struct {
	// Valid reports whether some input sequence generates the log.
	Valid bool
	// Witness is such an input sequence (when Valid).
	Witness relation.Sequence
	// WitnessDB is the database found by the solver when Options.UnknownDB
	// was set (nil otherwise).
	WitnessDB relation.Instance
	Stats     Stats
}

// LogValidity decides, per Theorem 3.1, whether the given log sequence is
// valid for the Spocus transducer m over database db: whether there exists
// an input sequence I₁…Iₙ with L₁…Lₙ = log(I₁…Iₙ). The log must use only
// logged relations. Complexity is NEXPTIME in general and Σ₂ᵖ for fixed
// schema, witnessed by the grounding statistics in the result.
func LogValidity(m *core.Machine, db relation.Instance, log relation.Sequence, opts *Options) (*LogValidityResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	return logValidity(ctx, m, db, log, opts)
}

func logValidity(ctx context.Context, m *core.Machine, db relation.Instance, log relation.Sequence, opts *Options) (*LogValidityResult, error) {
	if err := requireSpocus(m); err != nil {
		return nil, err
	}
	s := m.Schema()
	for j, inst := range log {
		for name, r := range inst {
			if !s.Logged(name) {
				return nil, fmt.Errorf("verify: log step %d uses unlogged relation %s", j+1, name)
			}
			if a, _ := s.Arity(name); r.Len() > 0 && r.Arity() != a {
				return nil, fmt.Errorf("verify: log step %d: relation %s has arity %d, schema says %d", j+1, name, r.Arity(), a)
			}
		}
	}
	n := len(log)
	if n == 0 {
		return &LogValidityResult{Valid: true, Witness: relation.Sequence{}}, nil
	}

	t := newTranslator(m, "")
	var conjuncts []fol.Formula
	for j := 1; j <= n; j++ {
		for _, name := range s.Log {
			arity, _ := s.Arity(name)
			want := log[j-1].Rel(name)
			var tuples []relation.Tuple
			if want != nil {
				tuples = want.Tuples()
			}
			valueAt, vars, err := logValueFormula(t, s, name, arity, j)
			if err != nil {
				return nil, err
			}
			// Membership: every logged tuple is in the relation's value.
			for _, tup := range tuples {
				args := tupleTerms(tup)
				f, err := valueAt(args)
				if err != nil {
					return nil, err
				}
				conjuncts = append(conjuncts, f)
			}
			// Inclusion: the relation's value holds only logged tuples.
			varTerms := make([]dlog.Term, arity)
			for i := range varTerms {
				varTerms[i] = dlog.V(vars[i])
			}
			val, err := valueAt(varTerms)
			if err != nil {
				return nil, err
			}
			var allowed []fol.Formula
			for _, tup := range tuples {
				var eqs []fol.Formula
				for i, c := range tup {
					eqs = append(eqs, fol.Eq(varTerms[i], dlog.C(string(c))))
				}
				allowed = append(allowed, fol.AndF(eqs...))
			}
			conjuncts = append(conjuncts, fol.ForallF(vars, fol.Implies(val, fol.OrF(allowed...))))
		}
	}

	free := map[string]int{}
	fixed := map[string]*relation.Rel{}
	t.freePreds(n, free)
	if opts.UnknownDB {
		dbPreds(m, nil, fixed, free)
	} else {
		dbPreds(m, db, fixed, free)
	}

	res, err := solveSub(ctx, opts, &fol.Problem{
		Formula:     fol.AndF(conjuncts...),
		Fixed:       fixed,
		Free:        free,
		ExtraConsts: m.Constants(),
		Tag:         m.Fingerprint(),
	})
	if err != nil {
		return nil, err
	}
	out := &LogValidityResult{Stats: statsOf(res)}
	if res.Status == sat.Unsat {
		return out, nil
	}
	out.Valid = true
	out.Witness = t.extractInputs(res.Model, n)
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
	if err := replayLogCheck(m, replayDB, out.Witness, log); err != nil {
		return nil, fmt.Errorf("verify: internal error: witness failed replay: %w", err)
	}
	out.Witness = shrinkInputs(out.Witness, func(cand relation.Sequence) bool {
		return len(cand) == len(log) && replayLogCheck(m, replayDB, cand, log) == nil
	})
	out.Stats.ReplayTime = time.Since(start)
	return out, nil
}

// LogValidityBatch decides Theorem 3.1 for many candidate logs over the
// same transducer and database, fanning the per-candidate SAT subproblems
// across Options.Parallelism workers (the production shape: one log per
// customer session, millions of sessions). Results are positionally aligned
// with logs. Unlike the single-log procedure, every candidate is decided —
// there is no early termination — and the first error cancels the
// remaining work. Sharing an Options.Cache across calls lets repeated
// sessions skip the solver entirely.
func LogValidityBatch(m *core.Machine, db relation.Instance, logs []relation.Sequence, opts *Options) ([]*LogValidityResult, error) {
	opts = opts.orDefault()
	ctx, cancel := opts.begin()
	defer cancel()
	return forEach(ctx, opts.workers(), len(logs), func(ctx context.Context, i int) (*LogValidityResult, error) {
		return logValidity(ctx, m, db, logs[i], opts)
	})
}

// logValueFormula returns a function giving the formula for "tuple ∈ value
// of logged relation name at step j", along with fresh universal variable
// names for the inclusion direction.
func logValueFormula(t *translator, s *core.Schema, name string, arity, j int) (func([]dlog.Term) (fol.Formula, error), []string, error) {
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("L%s·%d·%d", name, j, i)
	}
	switch {
	case s.In.Has(name):
		return func(args []dlog.Term) (fol.Formula, error) {
			return t.inputAtom(name, args, j), nil
		}, vars, nil
	case s.Out.Has(name):
		return func(args []dlog.Term) (fol.Formula, error) {
			return t.outputAtom(name, args, j)
		}, vars, nil
	}
	return nil, nil, fmt.Errorf("verify: logged relation %s is neither input nor output", name)
}

func tupleTerms(t relation.Tuple) []dlog.Term {
	out := make([]dlog.Term, len(t))
	for i, c := range t {
		out[i] = dlog.C(string(c))
	}
	return out
}

// replayLogCheck executes the machine on the witness inputs and verifies the
// produced log equals the queried one.
func replayLogCheck(m *core.Machine, db relation.Instance, inputs relation.Sequence, log relation.Sequence) error {
	run, err := m.Execute(db, inputs)
	if err != nil {
		return err
	}
	if len(run.Logs) != len(log) {
		return fmt.Errorf("log length %d vs %d", len(run.Logs), len(log))
	}
	for j := range log {
		if !run.Logs[j].Equal(log[j]) {
			return fmt.Errorf("step %d: produced log %s, want %s", j+1, run.Logs[j], log[j])
		}
	}
	return nil
}

// BruteForceLogValidity decides log validity by exhaustive search over input
// sequences drawn from the given constant pool, with at most maxFacts facts
// per step. It is exponential and exists as an oracle for property tests and
// as the naive baseline in the benchmarks.
func BruteForceLogValidity(m *core.Machine, db relation.Instance, log relation.Sequence, pool []relation.Const, maxFacts int) (bool, relation.Sequence, error) {
	n := len(log)
	// Enumerate all candidate single-step inputs: subsets of the fact
	// universe of size ≤ maxFacts.
	var universe []relation.Fact
	for _, d := range m.Schema().In {
		tuples := enumerateTuples(pool, d.Arity)
		for _, t := range tuples {
			universe = append(universe, relation.Fact{Rel: d.Name, Args: t})
		}
	}
	var steps []relation.Instance
	var build func(start, left int, cur relation.Instance)
	build = func(start, left int, cur relation.Instance) {
		steps = append(steps, cur.Clone())
		if left == 0 {
			return
		}
		for i := start; i < len(universe); i++ {
			next := cur.Clone()
			next.Add(universe[i].Rel, universe[i].Args)
			build(i+1, left-1, next)
		}
	}
	build(0, maxFacts, relation.NewInstance())
	// Depth-first over sequences with pruning on log prefix.
	var rec func(j int, prefix relation.Sequence) (relation.Sequence, error)
	rec = func(j int, prefix relation.Sequence) (relation.Sequence, error) {
		if j == n {
			return prefix, nil
		}
		for _, step := range steps {
			cand := append(prefix.Clone(), step.Clone())
			run, err := m.Execute(db, cand)
			if err != nil {
				return nil, err
			}
			if !run.Logs[j].Equal(log[j]) {
				continue
			}
			if w, err := rec(j+1, cand); err != nil || w != nil {
				return w, err
			}
		}
		return nil, nil
	}
	w, err := rec(0, relation.Sequence{})
	if err != nil {
		return false, nil, err
	}
	return w != nil, w, nil
}

func enumerateTuples(pool []relation.Const, arity int) []relation.Tuple {
	if arity == 0 {
		return []relation.Tuple{{}}
	}
	sub := enumerateTuples(pool, arity-1)
	var out []relation.Tuple
	for _, c := range pool {
		for _, t := range sub {
			nt := make(relation.Tuple, 0, arity)
			nt = append(nt, c)
			nt = append(nt, t...)
			out = append(out, nt)
		}
	}
	return out
}
