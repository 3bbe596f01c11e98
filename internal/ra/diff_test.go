package ra_test

// The differential correctness suite: the compiled plan engine must be
// observationally equivalent to the tree-walking dlog evaluator — tuple for
// tuple — on every registry model, on randomly generated stratified
// programs, and on fuzzed program sources. The tree engine is the oracle;
// any disagreement is a bug in the planner or executor.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/models"
	"repro/internal/ra"
	"repro/internal/relation"
)

// treeExecute is core.Machine.Execute on the tree-walking dlog evaluator —
// the oracle side of the machine-level differential tests, written against
// the machine's exported rule programs only. Outputs come from dlog.Eval
// (EvalStratified for general machines); state rules run with tagged heads
// so their bodies read the previous state, and a cumulative head keeps what
// it held before. The NUL byte keeps the tag out of any parseable name.
func treeExecute(m *core.Machine, db relation.Instance, inputs relation.Sequence) (*core.Run, error) {
	const nextPrefix = "\x00next-"
	stateProg := make(dlog.Program, len(m.StateRules()))
	cumulative := map[string]bool{}
	for i, r := range m.StateRules() {
		if r.Cumulative {
			cumulative[r.Head.Pred] = true
		}
		r.Head = dlog.Atom{Pred: nextPrefix + r.Head.Pred, Args: r.Head.Args}
		stateProg[i] = r
	}
	evalOut := dlog.Eval
	if m.Kind() == core.KindGeneral {
		evalOut = dlog.EvalStratified
	}
	run := &core.Run{DB: db, Inputs: inputs.Clone()}
	state := relation.NewInstance()
	for _, in := range run.Inputs {
		edb := dlog.MultiDB{in, state, db}
		out, err := evalOut(m.OutputRules(), edb)
		if err != nil {
			return nil, err
		}
		for _, d := range m.Schema().Out {
			out.Ensure(d.Name, d.Arity)
		}
		tagged, err := dlog.Eval(stateProg, edb)
		if err != nil {
			return nil, err
		}
		next := relation.NewInstance()
		for _, d := range m.Schema().State {
			next.Ensure(d.Name, d.Arity)
			if cumulative[d.Name] {
				next[d.Name].UnionWith(state.Rel(d.Name))
			}
		}
		for name, rel := range tagged {
			name = strings.TrimPrefix(name, nextPrefix)
			next.Ensure(name, rel.Arity()).UnionWith(rel)
		}
		run.Outputs = append(run.Outputs, out)
		run.States = append(run.States, next)
		run.Logs = append(run.Logs, m.Schema().LogDelta(in, out))
		state = next
	}
	return run, nil
}

// constPool gathers the constants a model's runs can mention: rule
// constants, database constants, and a few fresh ones (so joins also see
// values outside every relation).
func constPool(m *core.Machine, db relation.Instance) []relation.Const {
	seen := map[relation.Const]bool{}
	var pool []relation.Const
	add := func(c relation.Const) {
		if !seen[c] {
			seen[c] = true
			pool = append(pool, c)
		}
	}
	for _, c := range m.Constants() {
		add(c)
	}
	for _, rel := range db {
		rel.Range(func(t relation.Tuple) bool {
			for _, c := range t {
				add(c)
			}
			return true
		})
	}
	add("diff-x")
	add("diff-y")
	return pool
}

// randInputs builds a pseudo-random input sequence over the machine's input
// schema from the constant pool.
func randInputs(rng *rand.Rand, m *core.Machine, pool []relation.Const, steps int) relation.Sequence {
	var seq relation.Sequence
	for s := 0; s < steps; s++ {
		in := relation.NewInstance()
		for _, d := range m.Schema().In {
			n := rng.Intn(3) // 0..2 tuples per input relation per step
			for i := 0; i < n; i++ {
				t := make(relation.Tuple, d.Arity)
				for j := range t {
					t[j] = pool[rng.Intn(len(pool))]
				}
				in.Add(d.Name, t)
			}
		}
		seq = append(seq, in)
	}
	return seq
}

// TestDifferentialRegistryModels runs every registry model on the compiled
// plans and on the tree oracle over randomized sessions and requires identical outputs, states,
// and logs at every step.
func TestDifferentialRegistryModels(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			db := models.DefaultDB(name)
			if db == nil {
				db = relation.NewInstance()
			}
			m := models.Get(name)
			pool := constPool(m, db)
			for trial := 0; trial < 5; trial++ {
				inputs := randInputs(rng, m, pool, 6)
				treeRun, treeErr := treeExecute(m, db, inputs)
				raRun, raErr := m.Execute(db, inputs)
				if (treeErr == nil) != (raErr == nil) {
					t.Fatalf("trial %d: engines disagree on error: tree=%v ra=%v", trial, treeErr, raErr)
				}
				if treeErr != nil {
					continue
				}
				if !treeRun.Outputs.Equal(raRun.Outputs) {
					t.Fatalf("trial %d: outputs differ\ninputs: %v\ntree: %v\nra:   %v", trial, inputs, treeRun.Outputs, raRun.Outputs)
				}
				if !treeRun.States.Equal(raRun.States) {
					t.Fatalf("trial %d: states differ\ninputs: %v\ntree: %v\nra:   %v", trial, inputs, treeRun.States, raRun.States)
				}
				if !treeRun.Logs.Equal(raRun.Logs) {
					t.Fatalf("trial %d: logs differ\ninputs: %v", trial, inputs)
				}
			}
		})
	}
}

// TestDifferentialShortPaperSession pins the paper's Figure 1/2 session on
// the SHORT model: order Time, pay the right price, expect delivery — the
// same trace from the compiled plans and the tree oracle.
func TestDifferentialShortPaperSession(t *testing.T) {
	db := models.DefaultDB("short")
	if db == nil {
		t.Fatal("no default db for short")
	}
	step1 := relation.NewInstance()
	step1.Add("order", relation.Tuple{"time"})
	step2 := relation.NewInstance()
	step2.Add("pay", relation.Tuple{"time", "855"})
	inputs := relation.Sequence{step1, step2}

	m := models.Get("short")
	treeRun, err := treeExecute(m, db, inputs)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	raRun, err := m.Execute(db, inputs)
	if err != nil {
		t.Fatalf("ra: %v", err)
	}
	if !treeRun.Outputs.Equal(raRun.Outputs) || !treeRun.States.Equal(raRun.States) {
		t.Fatalf("paper session differs\ntree: %v\nra:   %v", treeRun.Outputs, raRun.Outputs)
	}
}

// The generator's predicate universe. Both sides span arities 0–3, so a
// generated program probes, negates and emits rows under both membership
// keys of the executor: one packed word (arity ≤ 2) and a byte string
// (arity ≥ 3).
var (
	genDerived = []string{"p0", "p1", "p2", "p3"}
	genDArity  = []int{1, 3, 0, 2}
	genEDBPred = []string{"e0", "e1", "e2", "e3"}
	genEArity  = []int{2, 0, 3, 1}
)

// genProgram builds a random safe stratified program: derived predicates
// p0..p3 with fixed arities, EDB predicates e0..e3, negative references
// only to strictly lower derived predicates or the EDB, head and negation
// variables bound by positive literals by construction. Positive
// self-references are allowed, so recursive strata are generated too.
func genProgram(rng *rand.Rand) dlog.Program {
	derived, dArity := genDerived, genDArity
	edb, eArity := genEDBPred, genEArity
	consts := []string{"a", "b", "c", "d"}
	vars := []string{"X", "Y", "Z", "W"}

	var prog dlog.Program
	nRules := 1 + rng.Intn(5)
	for r := 0; r < nRules; r++ {
		hi := rng.Intn(len(derived))
		var body []dlog.Literal
		bound := map[string]bool{}

		term := func(mayBindNew bool) dlog.Term {
			if rng.Intn(3) == 0 {
				return dlog.Term{Name: consts[rng.Intn(len(consts))]}
			}
			if mayBindNew {
				v := vars[rng.Intn(len(vars))]
				return dlog.Term{Name: v, Var: true}
			}
			// Only already-bound variables (or a constant as fallback).
			var bs []string
			for v := range bound {
				bs = append(bs, v)
			}
			if len(bs) == 0 {
				return dlog.Term{Name: consts[rng.Intn(len(consts))]}
			}
			return dlog.Term{Name: bs[rng.Intn(len(bs))], Var: true}
		}

		nPos := 1 + rng.Intn(2)
		for i := 0; i < nPos; i++ {
			var pred string
			var arity int
			// EDB predicate, or a derived predicate <= the head (positive
			// references upward would merge strata; same-pred makes the
			// stratum recursive).
			if rng.Intn(2) == 0 {
				k := rng.Intn(len(edb))
				pred, arity = edb[k], eArity[k]
			} else {
				k := rng.Intn(hi + 1)
				pred, arity = derived[k], dArity[k]
			}
			args := make([]dlog.Term, arity)
			for j := range args {
				args[j] = term(true)
				if args[j].Var {
					bound[args[j].Name] = true
				}
			}
			body = append(body, dlog.Literal{Kind: dlog.LitPos, Atom: dlog.Atom{Pred: pred, Args: args}})
		}
		// Optional negation against the EDB or a strictly lower derived
		// predicate, over bound terms only.
		if rng.Intn(2) == 0 {
			var pred string
			var arity int
			if hi > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(hi)
				pred, arity = derived[k], dArity[k]
			} else {
				k := rng.Intn(len(edb))
				pred, arity = edb[k], eArity[k]
			}
			args := make([]dlog.Term, arity)
			for j := range args {
				args[j] = term(false)
			}
			body = append(body, dlog.Literal{Kind: dlog.LitNeg, Atom: dlog.Atom{Pred: pred, Args: args}})
		}
		// Optional comparison over bound terms.
		if rng.Intn(3) == 0 {
			kind := dlog.LitNeq
			if rng.Intn(2) == 0 {
				kind = dlog.LitEq
			}
			body = append(body, dlog.Literal{Kind: kind, Left: term(false), Right: term(false)})
		}

		head := dlog.Atom{Pred: derived[hi], Args: make([]dlog.Term, dArity[hi])}
		for j := range head.Args {
			head.Args[j] = term(false)
		}
		prog = append(prog, dlog.Rule{Head: head, Body: body})
	}
	return prog
}

// selfRefHeads returns the head predicates that occur in the body of one
// of their own rules. When such a predicate also holds EDB facts, the
// derived-shadows-EDB view can flip mid-rule, and the result depends on
// tuple enumeration order — the tree oracle itself is map-iteration
// nondeterministic there, so tuple-for-tuple equivalence is not
// well-defined. The machine layer never constructs this situation (input,
// state, output, and database schemas are pairwise disjoint), so the
// differential generators exclude it.
func selfRefHeads(prog dlog.Program) map[string]bool {
	out := map[string]bool{}
	for _, r := range prog {
		for _, l := range r.Body {
			if (l.Kind == dlog.LitPos || l.Kind == dlog.LitNeg) && l.Atom.Pred == r.Head.Pred {
				out[r.Head.Pred] = true
			}
		}
	}
	return out
}

// genEDB builds a random EDB over the generator's predicate universe,
// including tuples for derived predicates so shadowing (derived hides EDB
// once a predicate has derived tuples) is exercised — except for
// self-referential heads, where the oracle is order-nondeterministic (see
// selfRefHeads).
func genEDB(rng *rand.Rand, prog dlog.Program) relation.Instance {
	consts := []relation.Const{"a", "b", "c", "d", "e"}
	selfRef := selfRefHeads(prog)
	in := relation.NewInstance()
	names := append(append([]string{}, genEDBPred...), genDerived...)
	arities := append(append([]int{}, genEArity...), genDArity...)
	for k, name := range names {
		if selfRef[name] {
			continue
		}
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			t := make(relation.Tuple, arities[k])
			for j := range t {
				t[j] = consts[rng.Intn(len(consts))]
			}
			in.Add(name, t)
		}
	}
	return in
}

// TestDifferentialQuick is the property: on generated safe stratified
// programs, Plan.Eval equals EvalStratified exactly — whichever EDB
// predicates the planner is told are the step's input, since that choice
// may reorder a join and nothing else. The programs drawn must between
// them probe, anti-probe and emit under both membership keys.
func TestDifferentialQuick(t *testing.T) {
	var reached [3][2]bool // probe, anti, emit × packed word, byte string
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := genProgram(rng)
		edb := dlog.MultiDB{genEDB(rng, prog)}
		var inputs []string
		for _, e := range genEDBPred {
			if rng.Intn(2) == 0 {
				inputs = append(inputs, e)
			}
		}

		plan, cerr := ra.Compile(prog, nil, inputs...)
		treeOut, terr := dlog.EvalStratified(prog, edb)
		if cerr != nil || terr != nil {
			// Generated programs are safe and stratified by construction;
			// any rejection is a planner or oracle bug.
			t.Logf("program:\n%s", prog)
			t.Errorf("unexpected rejection: compile=%v tree=%v", cerr, terr)
			return false
		}
		probe, anti, emit := ra.KeyUse(plan)
		for k := range 2 {
			reached[0][k] = reached[0][k] || probe[k]
			reached[1][k] = reached[1][k] || anti[k]
			reached[2][k] = reached[2][k] || emit[k]
		}
		raOut, err := plan.Eval(edb)
		if err != nil {
			t.Errorf("ra eval: %v", err)
			return false
		}
		if !treeOut.Equal(raOut) {
			t.Logf("program:\n%s\ninputs: %v\nedb: %v\ntree: %v\nra:   %v", prog, inputs, edb, treeOut, raOut)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for i, use := range []string{"probe", "anti", "emit"} {
		for k, key := range []string{"packed-word", "byte-string"} {
			if !reached[i][k] {
				t.Errorf("no generated program has a %s under the %s key", use, key)
			}
		}
	}
}

// loadDlogFuzzCorpus reads the seed inputs of dlog's FuzzParseProgram
// corpus (go test fuzz v1 format), reusing its accumulated parser coverage
// as differential inputs.
func loadDlogFuzzCorpus(tb testing.TB) []string {
	dir := filepath.Join("..", "dlog", "testdata", "fuzz", "FuzzParseProgram")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Logf("no dlog fuzz corpus at %s: %v", dir, err)
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// fuzzEDB builds a deterministic EDB for a parsed program: every predicate
// mentioned anywhere (heads included, to exercise shadowing) gets a few
// tuples over the program's constants plus a/b — except self-referential
// heads, where the oracle itself is order-nondeterministic (see
// selfRefHeads).
func fuzzEDB(prog dlog.Program) relation.Instance {
	arity := map[string]int{}
	order := []string{}
	note := func(a dlog.Atom) {
		if _, ok := arity[a.Pred]; !ok {
			arity[a.Pred] = len(a.Args)
			order = append(order, a.Pred)
		}
	}
	for _, r := range prog {
		note(r.Head)
		for _, l := range r.Body {
			if l.Kind == dlog.LitPos || l.Kind == dlog.LitNeg {
				note(l.Atom)
			}
		}
	}
	consts := append([]relation.Const{"a", "b"}, prog.Constants()...)
	selfRef := selfRefHeads(prog)
	in := relation.NewInstance()
	for _, pred := range order {
		if selfRef[pred] {
			continue
		}
		n := arity[pred]
		for i := 0; i < 2; i++ {
			t := make(relation.Tuple, n)
			for j := range t {
				t[j] = consts[(i+j)%len(consts)]
			}
			in.Add(pred, t)
		}
	}
	return in
}

// differentialCheck is the shared fuzz/seed body: any program the planner
// accepts must evaluate identically to the tree engine.
func differentialCheck(t *testing.T, src string) {
	prog, err := dlog.ParseProgram(src)
	if err != nil {
		return
	}
	plan, cerr := ra.Compile(prog, nil)
	if cerr != nil {
		// The planner rejects unsafe/unstratifiable/arity-conflicting
		// programs; the machine layer refuses to build them, so there is
		// nothing to compare.
		return
	}
	edb := dlog.MultiDB{fuzzEDB(prog)}
	treeOut, terr := dlog.EvalStratified(prog, edb)
	if terr != nil {
		t.Fatalf("planner accepted %q but tree engine rejects it: %v", src, terr)
	}
	raOut, err := plan.Eval(edb)
	if err != nil {
		t.Fatalf("ra eval of %q: %v", src, err)
	}
	if !treeOut.Equal(raOut) {
		t.Fatalf("engines disagree on %q\nedb: %v\ntree: %v\nra:   %v", src, edb, treeOut, raOut)
	}
}

// paperSeedPrograms mirror dlog's fuzz seeds: paper-style rule programs and
// surface-form edge cases.
var paperSeedPrograms = []string{
	`past-order(X) +:- order(X);
past-pay(X, Y) +:- pay(X, Y);`,
	`deliver(X) :- past-order(X), price(X, Y), pay(X, Y), NOT past-pay(X, Y), NOT past-cancel(X);`,
	`error :- pay(X, Y), pay(X, Z), Y <> Z;
error :- deliver(X), cancel(X);`,
	`ship(X) :- order(X), catalog(X, 'Time'), NOT held(X).`,
	`greet('hello world') :- member(X), X = gold;`,
	"answer(42).",
	`reach(X, Y) :- edge(X, Y);
reach(X, Z) :- reach(X, Y), edge(Y, Z);`,
	`odd(X) :- succ(Y, X), even(Y);
even(X) :- succ(Y, X), odd(Y);
even(zero);`,
	`p(X) :- e0(X), NOT q(X);
q(X) :- e1(X, Y), X = a;`,
}

// TestDifferentialSeeds runs the seed programs directly (the fuzz target
// covers them too, but this keeps them in the default `go test` run).
func TestDifferentialSeeds(t *testing.T) {
	seeds := append([]string{}, paperSeedPrograms...)
	seeds = append(seeds, loadDlogFuzzCorpus(t)...)
	for i, src := range seeds {
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			differentialCheck(t, src)
		})
	}
}

// FuzzDifferential fuzzes program sources through both engines, seeded
// with the paper programs, dlog's parser fuzz corpus, and programs
// genProgram draws over arities 0–3 (so both membership keys are in the
// corpus from the start).
func FuzzDifferential(f *testing.F) {
	for _, s := range paperSeedPrograms {
		f.Add(s)
	}
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(genProgram(rand.New(rand.NewSource(seed))).String())
	}
	for _, s := range loadDlogFuzzCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		differentialCheck(t, src)
	})
}
