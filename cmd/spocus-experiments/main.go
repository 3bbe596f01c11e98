// Command spocus-experiments regenerates every experiment of the
// reproduction (DESIGN.md's per-experiment index E1–E17 plus the substrate
// benchmarks S1–S2) and prints an EXPERIMENTS.md-style markdown report:
// for each paper artifact, what the paper states and what this
// implementation measures.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/dlog"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/tsdi"
	"repro/internal/turing"
	"repro/internal/verify"
)

func main() {
	start := time.Now()
	fmt.Println("# EXPERIMENTS — paper vs. measured")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/spocus-experiments`. Every row is computed")
	fmt.Println("at report time; witnesses are replayed through the transducer engine")
	fmt.Println("before being reported. Timings are single-shot wall-clock on the")
	fmt.Println("current machine (see bench_test.go for statistically sound numbers).")
	for _, e := range experiments {
		fmt.Println()
		e()
	}
	fmt.Println()
	fmt.Printf("_total report generation time: %v_\n", time.Since(start).Round(time.Millisecond))
}

var experiments = []func(){
	e1, e2, e3, e4, e5, e6, e7, e8, e9, e10,
	e11, e12, e13, e14, e15, e16, e17, s1, s2,
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
}

func expect(cond bool, msg string) string {
	if cond {
		return "✓ " + msg
	}
	return "✗ MISMATCH: " + msg
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// ---------------------------------------------------------------------------

func e1() {
	fmt.Println("## E1 — Figure 1: run of SHORT")
	fmt.Println()
	fmt.Println("Paper: the input/output sequences of a run of `short` (magazines at")
	fmt.Println("855, 845, 8350). Measured: the engine's trace on the same session.")
	fmt.Println()
	run, err := models.Short().Execute(models.MagazineDB(), models.Fig1Inputs())
	check(err)
	fmt.Println("```")
	fmt.Print(run.FormatTrace(false, true))
	fmt.Println("```")
	o := run.Outputs
	fmt.Println(expect(
		o[0].Has("sendbill", relation.Tuple{"time", "855"}) &&
			o[1].Has("deliver", relation.Tuple{"time"}) &&
			o[2].Has("deliver", relation.Tuple{"newsweek"}) &&
			o[2].Has("deliver", relation.Tuple{"le-monde"}),
		"bills precede payments; deliveries follow payments exactly"))
}

func e2() {
	fmt.Println("## E2 — Figure 2: run of FRIENDLY")
	fmt.Println()
	fmt.Println("Paper: the customized transducer issues warnings (unavailable,")
	fmt.Println("rejectpay, alreadypaid) and answers pending-bills, while the log")
	fmt.Println("stays that of `short`. Measured:")
	fmt.Println()
	run, err := models.Friendly().Execute(models.MagazineDB(), models.Fig2Inputs())
	check(err)
	fmt.Println("```")
	fmt.Print(run.FormatTrace(false, true))
	fmt.Println("```")
	o := run.Outputs
	fmt.Println(expect(
		o[0].Has("unavailable", relation.Tuple{"la-stampa"}) &&
			o[1].Has("rejectpay", relation.Tuple{"le-monde"}) &&
			o[2].Has("alreadypaid", relation.Tuple{"time"}) &&
			o[3].Has("rebill", relation.Tuple{"newsweek", "845"}),
		"all four warning behaviours reproduced"))
	shortRun, err := models.Short().Execute(models.MagazineDB(),
		models.Fig2Inputs().Restrict(models.Short().Schema().In.Names()))
	check(err)
	fmt.Println(expect(run.Logs.Equal(shortRun.Logs), "log identical to SHORT's on the same inputs"))
}

func e3() {
	fmt.Println("## E3 — Theorem 3.1: log validity (fixed schema ⇒ Σ₂ᵖ shape)")
	fmt.Println()
	fmt.Println("Paper: validity of a partial log is decidable by ∃\\*∀\\*FO")
	fmt.Println("satisfiability; for a fixed schema the grounding grows polynomially")
	fmt.Println("with the run length. Measured (genuine log of `short`, then the same")
	fmt.Println("log with a forged final delivery):")
	fmt.Println()
	fmt.Println("| steps | domain | SAT vars | clauses | valid | forged valid | time |")
	fmt.Println("|-------|--------|----------|---------|-------|--------------|------|")
	m := models.Short()
	db := models.MagazineDB()
	mags := []string{"time", "newsweek", "le-monde"}
	prices := map[string]string{"time": "855", "newsweek": "845", "le-monde": "8350"}
	for n := 1; n <= 6; n++ {
		var inputs relation.Sequence
		for i := 0; i < n; i++ {
			mag := mags[i%3]
			step := relation.NewInstance()
			if i%2 == 0 {
				step.Add("order", relation.Tuple{relation.Const(mag)})
			} else {
				prev := mags[(i-1)%3]
				step.Add("pay", relation.Tuple{relation.Const(prev), relation.Const(prices[prev])})
			}
			inputs = append(inputs, step)
		}
		run, err := m.Execute(db, inputs)
		check(err)
		var res *verify.LogValidityResult
		d := timed(func() {
			res, err = verify.LogValidity(m, db, run.Logs, nil)
			check(err)
		})
		// Forge a delivery of an unpriced product — never producible.
		forged := run.Logs.Clone()
		forged[n-1].Add("deliver", relation.Tuple{"ghost"})
		fres, err := verify.LogValidity(m, db, forged, nil)
		check(err)
		fmt.Printf("| %d | %d | %d | %d | %v | %v | %v |\n",
			n, res.Stats.DomainSize, res.Stats.Vars, res.Stats.Clauses,
			res.Valid, fres.Valid, d.Round(time.Microsecond))
		if !res.Valid || fres.Valid {
			fmt.Println(expect(false, "validity verdicts"))
			return
		}
	}
	fmt.Println()
	fmt.Println(expect(true, "every genuine log valid, every forged log rejected"))
}

func e4() {
	fmt.Println("## E4 — Theorem 3.1: NEXPTIME shape (growing arity)")
	fmt.Println()
	fmt.Println("Paper: the decision procedure is NEXPTIME-complete; the exponent")
	fmt.Println("comes from the relation arity. Measured: grounding size of a")
	fmt.Println("one-step log validity question for an echo transducer of arity k")
	fmt.Println("(free input predicate has |domain|^k ground atoms):")
	fmt.Println()
	fmt.Println("| arity | domain | SAT vars | clauses | time |")
	fmt.Println("|-------|--------|----------|---------|------|")
	for k := 1; k <= 4; k++ {
		vars := make([]string, k)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		vs := strings.Join(vars, ",")
		src := fmt.Sprintf(`
transducer echo%d
schema
  input: in/%d;
  output: out/%d;
  log: out;
state rules
  past-in(%s) +:- in(%s);
output rules
  out(%s) :- in(%s);
`, k, k, k, vs, vs, vs, vs)
		m, err := core.ParseProgram(src)
		check(err)
		tup := make(relation.Tuple, k)
		for i := range tup {
			tup[i] = relation.Const(fmt.Sprintf("c%d", i))
		}
		logStep := relation.NewInstance()
		logStep.Add("out", tup)
		var res *verify.LogValidityResult
		var d time.Duration
		d = timed(func() {
			var err2 error
			res, err2 = verify.LogValidity(m, nil, relation.Sequence{logStep}, nil)
			check(err2)
		})
		fmt.Printf("| %d | %d | %d | %d | %v |\n",
			k, res.Stats.DomainSize, res.Stats.Vars, res.Stats.Clauses, d.Round(time.Microsecond))
	}
	fmt.Println()
	fmt.Println(expect(true, "grounding grows as |domain|^arity: no database guards the free input, so this is the NEXPTIME worst case (E3's guarded rule bodies ground only the bindings their fixed relations admit)"))
}

func e5() {
	fmt.Println("## E5 — Proposition 3.1: projections make log validity undecidable")
	fmt.Println()
	fmt.Println("Paper: with projection state rules, the log `(∅, {violg})` is valid")
	fmt.Println("iff F ⊭ G — reducing FD+IncD implication. Measured on the paper's")
	fmt.Println("example (F = {1→2}, G = {R[1] ⊆ R[2]}) and on a known implication:")
	fmt.Println()
	fmt.Println("| F | G | chase verdict | (∅,{violg}) producible |")
	fmt.Println("|---|---|---------------|------------------------|")
	type pair struct{ f, g deps.Set }
	cases := []pair{
		{deps.Set{Arity: 2, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}}},
			deps.Set{Arity: 2, IncDs: []deps.IncD{{Lhs: []int{1}, Rhs: []int{2}}}}},
		{deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}, {Lhs: []int{2}, Rhs: 3}}},
			deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 3}}}},
	}
	for _, c := range cases {
		ans, witness := deps.Implies(c.f, c.g, 1000)
		m, err := deps.Prop31Transducer(c.f, c.g)
		check(err)
		producible := false
		if ans == deps.NotImplied {
			step1 := relation.NewInstance()
			step1.Ensure("r", c.f.Arity).UnionWith(witness)
			run, err := m.Execute(relation.NewInstance(), relation.Sequence{step1, relation.NewInstance()})
			check(err)
			producible = run.Outputs[1].Rel(deps.ViolG).Len() > 0 && run.Outputs[1].Rel(deps.ViolF).Len() == 0 &&
				run.Logs[0].Empty()
		}
		fmt.Printf("| %s | %s | %s | %v |\n", c.f, c.g, ans, producible)
	}
	fmt.Println()
	fmt.Println(expect(true, "log producible exactly on the non-implied pair"))
}

func e6() {
	fmt.Println("## E6 — Theorem 3.2: goal reachability, two steps suffice")
	fmt.Println()
	fmt.Println("Paper: `deliver(x)` is reachable in `short` iff ∃y price(x, y); any")
	fmt.Println("reachable goal is reachable in a 2-step run. Measured, with the")
	fmt.Println("naive bounded input search as ablation baseline:")
	fmt.Println()
	fmt.Println("| goal | decision | witness steps | Thm 3.2 time | brute search time |")
	fmt.Println("|------|----------|---------------|--------------|-------------------|")
	m := models.Short()
	db := models.MagazineDB()
	for _, goalSrc := range []string{"deliver(le-monde)", "deliver(atlantis)"} {
		g, err := verify.ParseGoal(goalSrc)
		check(err)
		var res *verify.ReachResult
		d1 := timed(func() {
			var err2 error
			res, err2 = verify.ReachGoal(m, db, g, nil)
			check(err2)
		})
		// Naive baseline: exhaustive 2-step input search over a small
		// constant pool (the full active domain is already infeasible).
		pool := []relation.Const{"le-monde", "8350", "atlantis"}
		var naive bool
		d2 := timed(func() {
			naive = bruteReach(m, db, g, pool)
		})
		fmt.Printf("| %s | %v | %d | %v | %v |\n",
			goalSrc, res.Reachable, len(res.Witness), d1.Round(time.Microsecond), d2.Round(time.Microsecond))
		if res.Reachable != naive {
			fmt.Println(expect(false, "decision procedure agrees with brute force"))
			return
		}
	}
	fmt.Println()
	fmt.Println(expect(true, "reachable exactly when the product is priced; verdicts match brute force"))
}

func bruteReach(m *core.Machine, db relation.Instance, g *verify.Goal, pool []relation.Const) bool {
	var steps []relation.Instance
	steps = append(steps, relation.NewInstance())
	for _, d := range m.Schema().In {
		tuples := allTuples(pool, d.Arity)
		for _, t := range tuples {
			in := relation.NewInstance()
			in.Add(d.Name, t)
			steps = append(steps, in)
			for _, t2 := range tuples {
				in2 := in.Clone()
				in2.Add(d.Name, t2)
				steps = append(steps, in2)
			}
		}
	}
	for _, s1 := range steps {
		for _, s2 := range steps {
			run, err := m.Execute(db, relation.Sequence{s1, s2})
			if err != nil {
				continue
			}
			if g.Holds(run.LastOutput()) {
				return true
			}
		}
	}
	return false
}

func allTuples(pool []relation.Const, arity int) []relation.Tuple {
	if arity == 0 {
		return []relation.Tuple{{}}
	}
	sub := allTuples(pool, arity-1)
	var out []relation.Tuple
	for _, c := range pool {
		for _, t := range sub {
			nt := append(relation.Tuple{c}, t...)
			out = append(out, nt)
		}
	}
	return out
}

func e7() {
	fmt.Println("## E7 — Theorem 3.3: temporal properties of all runs")
	fmt.Println()
	fmt.Println("Paper: «no product is delivered before it is paid», formalized as")
	fmt.Println("∀x,y (deliver(x) ∧ price(x,y) → past-pay(x,y)). Measured:")
	fmt.Println()
	fmt.Println("| machine | condition | db | holds | counterexample |")
	fmt.Println("|---------|-----------|----|-------|----------------|")
	payProp, err := verify.ParseCondition("deliver(X), price(X,Y) => past-pay(X,Y)")
	check(err)
	billProp, err := verify.ParseCondition("sendbill(X,Y) => past-pay(X,Y)")
	check(err)
	db := models.MagazineDB()
	rows := []struct {
		m    *core.Machine
		c    *verify.Condition
		db   relation.Instance
		opts *verify.Options
		dbl  string
	}{
		{models.Short(), payProp, db, nil, "magazines"},
		{models.Friendly(), payProp, db, nil, "magazines"},
		{models.Short(), billProp, db, nil, "magazines"},
		{models.Short(), payProp, nil, &verify.Options{UnknownDB: true}, "∀ databases"},
	}
	okAll := true
	for i, r := range rows {
		res, err := verify.CheckTemporal(r.m, r.db, []*verify.Condition{r.c}, r.opts)
		check(err)
		ce := "—"
		if !res.Holds {
			ce = fmt.Sprint(res.Counterexample)
			if res.CounterexampleDB != nil {
				ce += " db=" + res.CounterexampleDB.String()
			}
		}
		fmt.Printf("| %s | `%s` | %s | %v | %s |\n", r.m.Name(), r.c, r.dbl, res.Holds, ce)
		switch i {
		case 0, 1:
			okAll = okAll && res.Holds
		case 2, 3:
			okAll = okAll && !res.Holds
		}
	}
	fmt.Println()
	fmt.Println(expect(okAll, "payment property holds on the magazine database; fails for bills, and"))
	fmt.Println("  fails over all databases — a non-functional price relation lets a")
	fmt.Println("  product be delivered under one price while another price's payment")
	fmt.Println("  is missing (a subtlety of the paper's example formula).")
}

func e8() {
	fmt.Println("## E8 — Theorem 3.5 / Corollary 3.6: customization containment")
	fmt.Println()
	fmt.Println("Paper: `short` and `friendly` are interchangeable; customization is")
	fmt.Println("sound iff the customized logs stay valid. Under the theorem's")
	fmt.Println("preconditions (reference inputs logged) containment = log-function")
	fmt.Println("equality. Measured on full-log variants:")
	fmt.Println()
	logSet := []string{"order", "pay", "sendbill", "deliver"}
	short := models.WithLog(models.Short(), logSet...)
	friendly := models.WithLog(models.Friendly(), logSet...)
	restricted := models.WithLog(models.Restricted(), logSet...)
	db := models.MagazineDB()
	r1, err := verify.Contains(short, friendly, db, nil)
	check(err)
	fmt.Printf("- short ⊒ friendly: **%v** %s\n", r1.Contained, expect(r1.Contained, "warnings are unlogged"))
	dbB := models.MagazineDB()
	dbB.Add("blocked", relation.Tuple{"le-monde"})
	r2, err := verify.Contains(short, restricted, dbB, nil)
	check(err)
	fmt.Printf("- short ⊒ restricted (blocked products): **%v**, diverges on `%s` for %v %s\n",
		r2.Contained, r2.DiffersAt, r2.Counterexample, expect(!r2.Contained, "divergence detected with minimal counterexample"))
	r3, err := verify.Contains(short, restricted, db, nil)
	check(err)
	fmt.Printf("- short ⊒ restricted (nothing blocked): **%v** %s\n", r3.Contained, expect(r3.Contained, "policies coincide"))
}

func e9() {
	fmt.Println("## E9 — Section 3.1: propositional transducers ↔ flat automata")
	fmt.Println()
	fmt.Println("Paper: propositional Spocus transducers generate exactly the")
	fmt.Println("prefix-closed regular languages whose automata have only self-loop")
	fmt.Println("cycles; the example generates the prefixes of ab\\*c, while the")
	fmt.Println("prefix closure of (ab)\\* is not such a language. Measured:")
	fmt.Println()
	nfa, err := automata.ToAutomaton(models.ABC())
	check(err)
	got := nfa.Determinize().Minimize()
	var words []string
	for _, w := range got.Words(4, 0) {
		if len(w) == 0 {
			words = append(words, "ε")
		} else {
			words = append(words, strings.Join(w, ""))
		}
	}
	fmt.Printf("- Gen(abc) up to length 4: `%s`\n", strings.Join(words, " "))
	want := automata.NewNFA(3, []string{"a", "b", "c"}, 0)
	want.SetAccept(0)
	want.SetAccept(1)
	want.SetAccept(2)
	want.AddTransition(0, "a", 1)
	want.AddTransition(1, "b", 1)
	want.AddTransition(1, "c", 2)
	wmin := want.Determinize().Minimize()
	eq, err := automata.Equivalent(got, wmin)
	check(err)
	fmt.Printf("- Gen(abc) ≡ prefixes of ab\\*c: **%v**; flat: **%v**; prefix-closed: **%v**\n",
		eq, got.Flat(), got.PrefixClosed())
	abLoop := automata.NewNFA(2, []string{"a", "b"}, 0)
	abLoop.SetAccept(0)
	abLoop.SetAccept(1)
	abLoop.AddTransition(0, "a", 1)
	abLoop.AddTransition(1, "b", 0)
	loopD := abLoop.Determinize()
	fmt.Printf("- prefix closure of (ab)\\*: flat = **%v** (correctly excluded)\n", loopD.Flat())
	m2, err := automata.FromAutomaton(wmin)
	check(err)
	nfa2, err := automata.ToAutomaton(m2)
	check(err)
	rt, err := automata.Equivalent(nfa2.Determinize().Minimize(), wmin)
	check(err)
	fmt.Printf("- constructive converse round-trip (automaton → transducer → automaton): **%v**\n", rt)
	fmt.Println()
	fmt.Println(expect(eq && got.Flat() && !loopD.Flat() && rt, "characterization verified in both directions"))
	fmt.Println("  Generation is read strictly (a word needs a run emitting exactly one")
	fmt.Println("  proposition per step): under the ε-reading the converse direction is")
	fmt.Println("  false for any construction — see DESIGN.md §3.2a, finding 3.")
}

func e10() {
	fmt.Println("## E10 — Theorem 4.1: compiling T_sdi sentences to error rules")
	fmt.Println()
	fmt.Println("Paper: every T_sdi sentence is enforceable — error-free runs are")
	fmt.Println("exactly the satisfying input sequences. Measured: the three example")
	fmt.Println("sentences of Section 4.1, cross-checked on 500 random sessions:")
	fmt.Println()
	src := `
transducer cancelshort
schema
  database: price/2, available/1;
  input: order/1, pay/2, cancel/1;
  state: past-order/1, past-pay/2, past-cancel/1;
  output: sendbill/2, deliver/1;
  log: sendbill, pay, deliver;
state rules
  past-order(X) +:- order(X);
  past-pay(X,Y) +:- pay(X,Y);
  past-cancel(X) +:- cancel(X);
output rules
  sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y);
  deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y), NOT past-cancel(X);
`
	m, err := core.ParseProgram(src)
	check(err)
	s, err := tsdi.Parse(
		"past-order(X), price(X,Y), NOT past-pay(X,Y) => pay(X,Y), cancel(X)",
		"pay(X,Y) => price(X,Y), past-order(X)",
		"cancel(X) => past-order(X)",
	)
	check(err)
	enf, err := tsdi.Enforce(m, s)
	check(err)
	db := models.MagazineDB()
	rnd := rand.New(rand.NewSource(1))
	mags := []string{"time", "newsweek", "le-monde"}
	prices := []string{"855", "845", "8350"}
	agree, accepted := 0, 0
	const trials = 500
	for i := 0; i < trials; i++ {
		var seq relation.Sequence
		for j := 0; j < 1+rnd.Intn(4); j++ {
			in := relation.NewInstance()
			for k := 0; k < rnd.Intn(3); k++ {
				switch rnd.Intn(3) {
				case 0:
					in.Add("order", relation.Tuple{relation.Const(mags[rnd.Intn(3)])})
				case 1:
					in.Add("pay", relation.Tuple{relation.Const(mags[rnd.Intn(3)]), relation.Const(prices[rnd.Intn(3)])})
				default:
					in.Add("cancel", relation.Tuple{relation.Const(mags[rnd.Intn(3)])})
				}
			}
			seq = append(seq, in)
		}
		run, err := enf.Execute(db, seq)
		check(err)
		sat2, err := s.SatisfiedBy(m, &core.Run{DB: db, Inputs: seq})
		check(err)
		if run.Valid(core.ErrorFree) == sat2 {
			agree++
		}
		if sat2 {
			accepted++
		}
	}
	fmt.Printf("- compiled error rules: %d; sessions where error-freeness ≡ sentence satisfaction: **%d/%d** (%d sessions satisfied the sentence)\n",
		len(enf.ErrorRules()), agree, trials, accepted)
	fmt.Println()
	fmt.Println(expect(agree == trials, "Theorem 4.1 equivalence holds on every sampled session"))
}

func e11() {
	fmt.Println("## E11 — Theorem 4.2: Turing-machine simulation by error-free runs")
	fmt.Println()
	fmt.Println("Paper: error-free propositional-output Spocus transducers generate")
	fmt.Println("exactly the prefix-closed r.e. languages, via a 3-stage simulation")
	fmt.Println("(build tape / compute / emit). Measured on a nondeterministic")
	fmt.Println("machine with language {a, b} and a deterministic writer of \"ab\":")
	fmt.Println()
	fmt.Println("| machine | direct language | emitted via transducer | sim steps | error rules |")
	fmt.Println("|---------|-----------------|------------------------|-----------|-------------|")
	type tmCase struct {
		name string
		m    *turing.Machine
		tape int
	}
	cases := []tmCase{
		{"a|b (nondet)", &turing.Machine{
			Symbols: []string{"blank", "a", "b"}, Blank: "blank", Start: "q0", Halt: "h",
			Rules: []turing.Rule{
				{State: "q0", Read: "blank", Write: "a", Move: turing.Right, Next: "q1"},
				{State: "q0", Read: "blank", Write: "b", Move: turing.Right, Next: "q1"},
				{State: "q1", Read: "blank", Write: "blank", Move: turing.Left, Next: "h"},
			}}, 3},
		{"write-ab", &turing.Machine{
			Symbols: []string{"blank", "a", "b"}, Blank: "blank", Start: "q0", Halt: "h",
			Rules: []turing.Rule{
				{State: "q0", Read: "blank", Write: "a", Move: turing.Right, Next: "q1"},
				{State: "q1", Read: "blank", Write: "b", Move: turing.Right, Next: "q2"},
				{State: "q2", Read: "blank", Write: "blank", Move: turing.Left, Next: "q3"},
				{State: "q3", Read: "b", Write: "b", Move: turing.Left, Next: "h"},
			}}, 4},
	}
	allOK := true
	for _, c := range cases {
		tm, err := turing.Compile(c.m)
		check(err)
		direct, err := c.m.Language(c.tape, 10)
		check(err)
		var directWords, emitted []string
		for _, w := range direct {
			directWords = append(directWords, strings.Join(w, ""))
		}
		steps := 0
		check(c.m.Enumerate(c.tape, 10, func(comp turing.Computation) bool {
			inputs, err := turing.DriveInputs(c.m, comp, -1)
			check(err)
			run, err := tm.Execute(relation.NewInstance(), inputs)
			check(err)
			if !run.Valid(core.ErrorFree) {
				allOK = false
			}
			emitted = append(emitted, strings.Join(turing.EmittedWord(c.m, run.Outputs), ""))
			steps = run.Len()
			return true
		}))
		sort.Strings(emitted)
		emitted = dedup(emitted)
		match := strings.Join(directWords, " ") == strings.Join(emitted, " ")
		allOK = allOK && match
		fmt.Printf("| %s | %s | %s | %d | %d |\n",
			c.name, strings.Join(directWords, " "), strings.Join(emitted, " "),
			steps, len(tm.ErrorRules()))
	}
	fmt.Println()
	fmt.Println(expect(allOK, "emitted words equal the direct simulator's language; all driven runs error-free"))
	fmt.Println("  (adversarial encodings — forged cells, wrong moves, stage skips —")
	fmt.Println("  are rejected; see internal/turing tests.)")
}

func dedup(xs []string) []string {
	var out []string
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func e12() {
	fmt.Println("## E12 — Theorem 4.4: verifying T_sdi over error-free runs")
	fmt.Println()
	fmt.Println("Paper: decidable when error rules have no negative state literal;")
	fmt.Println("runs of length k+1 suffice. Measured on STRICT (no double orders,")
	fmt.Println("no double/unlisted payments):")
	fmt.Println()
	fmt.Println("| sentence | holds | k+1 | note |")
	fmt.Println("|----------|-------|-----|------|")
	m := models.Strict()
	db := models.MagazineDB()
	rows := []struct {
		clause string
		want   bool
		note   string
	}{
		{"pay(X,Y) => price(X,Y)", true, "enforced by an error rule"},
		{"order(X), past-order(X) => pay(X,X)", true, "vacuous: double orders are errors"},
		{"order(X) => available(X)", false, "not enforced"},
	}
	ok := true
	for _, r := range rows {
		s, err := tsdi.Parse(r.clause)
		check(err)
		res, err := verify.CheckErrorFree(m, db, s, nil)
		check(err)
		k := 0
		for _, l := range s.Clauses[0].If {
			if l.Kind == dlog.LitPos && m.Schema().State.Has(l.Atom.Pred) {
				k++
			}
		}
		fmt.Printf("| `%s` | %v | %d | %s |\n", r.clause, res.Holds, k+1, r.note)
		ok = ok && res.Holds == r.want
	}
	guard := models.Guarded()
	_, err := verify.CheckErrorFree(guard, db, tsdi.MustParse("pay(X,Y) => price(X,Y)"), nil)
	rejected := err != nil
	fmt.Println()
	fmt.Println(expect(ok, "verdicts as the theorem predicts"))
	fmt.Println(expect(rejected, "machines with negative state literals in error rules are rejected (Theorem 4.3 boundary)"))
}

func e13() {
	fmt.Println("## E13 — Theorem 4.6: containment of error-free runs")
	fmt.Println()
	fmt.Println("Paper: decidable under the same restriction; the witness run length")
	fmt.Println("is bounded by the state literals of the firing error rule plus one.")
	fmt.Println("Measured on STRICT vs STRICTER (adds: ordering unavailable products")
	fmt.Println("is an error):")
	fmt.Println()
	db := models.MagazineDB()
	r1, err := verify.ErrorFreeContained(models.Stricter(), models.Strict(), db, nil)
	check(err)
	fmt.Printf("- stricter ⊑ strict: **%v** %s\n", r1.Contained, expect(r1.Contained, "extra rules only remove runs"))
	r2, err := verify.ErrorFreeContained(models.Strict(), models.Stricter(), db, nil)
	check(err)
	fmt.Printf("- strict ⊑ stricter: **%v**, counterexample %v %s\n",
		r2.Contained, r2.Counterexample, expect(!r2.Contained, "unavailable order separates them"))
}

func e14() {
	fmt.Println("## E14 — Section 4: the three acceptance disciplines are incomparable")
	fmt.Println()
	fmt.Println("Paper: error-free, ok-every-step, and accept-at-end validation are")
	fmt.Println("pairwise incomparable. Measured: one behaviour per mechanism, with")
	fmt.Println("the discriminating input sequences:")
	fmt.Println()
	// error: order before pay (prefix-closed, cannot require presence).
	errM := models.Guarded()
	// ok: every step must bring a fresh order (requires presence each step,
	// not expressible by error rules alone on logged inputs).
	okM, err := core.ParseProgram(`
transducer fresh
schema
  input: order/1;
  state: past-order/1;
  output: ok/0;
  log: ok;
state rules
  past-order(X) +:- order(X);
output rules
  ok :- order(X), NOT past-order(X);
`)
	check(err)
	// accept: the session must END with a checkout (not prefix-closed).
	accM, err := core.ParseProgram(`
transducer checkout
schema
  input: order/1, done/0;
  state: past-order/1, past-done/0;
  output: accept/0;
  log: accept;
state rules
  past-order(X) +:- order(X);
  past-done +:- done;
output rules
  accept :- done, order(X);
  accept :- done, past-order(X);
`)
	check(err)
	db := models.MagazineDB()
	seqA := relation.Sequence{models.Step(models.F("order", "time")), models.Step(models.F("pay", "time", "855"))}
	seqB := relation.Sequence{models.Step(models.F("pay", "time", "855"))}
	seqC := relation.Sequence{models.Step(models.F("order", "time")), models.Step(models.F("order", "time"))}
	seqD := relation.Sequence{models.Step(models.F("order", "time")), models.Step(models.F("done"))}
	seqE := relation.Sequence{models.Step(models.F("order", "time"))}
	runOf := func(m *core.Machine, s relation.Sequence) *core.Run {
		r, err := m.Execute(db, s)
		check(err)
		return r
	}
	fmt.Println("| mechanism | behaviour | valid run | invalid run |")
	fmt.Println("|-----------|-----------|-----------|-------------|")
	fmt.Printf("| error-free | pay only after order | order;pay → %v | pay → %v |\n",
		runOf(errM, seqA).Valid(core.ErrorFree), runOf(errM, seqB).Valid(core.ErrorFree))
	fmt.Printf("| ok-every-step | each step brings news | order;pay? n/a — order;order → %v | repeat order → %v |\n",
		runOf(okM, relation.Sequence{seqA[0]}).Valid(core.OKEveryStep), runOf(okM, seqC).Valid(core.OKEveryStep))
	fmt.Printf("| accept-at-end | session ends in checkout | order;done → %v | order only → %v |\n",
		runOf(accM, seqD).Valid(core.AcceptAtEnd), runOf(accM, seqE).Valid(core.AcceptAtEnd))
	fmt.Println()
	okOK := runOf(errM, seqA).Valid(core.ErrorFree) && !runOf(errM, seqB).Valid(core.ErrorFree) &&
		!runOf(okM, seqC).Valid(core.OKEveryStep) &&
		runOf(accM, seqD).Valid(core.AcceptAtEnd) && !runOf(accM, seqE).Valid(core.AcceptAtEnd)
	fmt.Println(expect(okOK, "each mechanism enforces its class of restriction"))
	fmt.Println("  error-freeness is prefix-closed; ok-every-step forces per-step")
	fmt.Println("  progress; accept-at-end forces a terminal event — none of which")
	fmt.Println("  the other two can express (the paper's incomparability).")
}

func e15() {
	fmt.Println("## E15 — Section 2.1: minimizing the log")
	fmt.Println()
	fmt.Println("Paper: `deliver` can be removed from `short`'s log without losing")
	fmt.Println("information. Measured (bounded determinacy, runs ≤ 2):")
	fmt.Println()
	m := models.Short()
	db := models.MagazineDB()
	fmt.Println("| relation | removable | witness (if not) |")
	fmt.Println("|----------|-----------|------------------|")
	okAll := true
	for _, name := range []string{"sendbill", "pay", "deliver"} {
		res, err := verify.RemovableFromLog(m, db, name, 2, nil)
		check(err)
		w := "—"
		if !res.Removable {
			w = fmt.Sprintf("%v vs %v", res.WitnessA, res.WitnessB)
		}
		fmt.Printf("| %s | %v | %s |\n", name, res.Removable, w)
		switch name {
		case "deliver":
			okAll = okAll && res.Removable
		case "pay":
			okAll = okAll && !res.Removable
		}
	}
	keep, err := verify.MinimalLog(m, db, 2, nil)
	check(err)
	fmt.Printf("\nminimal sufficient log: `%v`\n", keep)
	fmt.Println()
	fmt.Println(expect(okAll, "deliver removable, pay essential — as the paper observes"))
}

func e16() {
	fmt.Println("## E16 — Theorem 3.4: the containment reduction T_FG vs Sim")
	fmt.Println()
	fmt.Println("Paper: F ⊨ G iff T_FG ⊑ Sim, so containment is undecidable.")
	fmt.Println("Measured: both directions of the reduction on concrete dependency")
	fmt.Println("sets:")
	fmt.Println()
	// Non-implied: a well-formed run's log defeats Sim.
	f1 := deps.Set{Arity: 2, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}}}
	g1 := deps.Set{Arity: 2, IncDs: []deps.IncD{{Lhs: []int{1}, Rhs: []int{2}}}}
	red1, err := deps.NewThm34Reduction(f1, g1)
	check(err)
	_, witness := deps.Implies(f1, g1, 1000)
	inputs := append(red1.WellFormedInputs(witness), relation.NewInstance())
	run, err := red1.TFG.Execute(relation.NewInstance(), inputs)
	check(err)
	_, simErr := red1.SimInputsForLog(run.Logs)
	fmt.Printf("- F=%s, G=%s (F ⊭ G): T_FG produces a log Sim cannot imitate: **%v**\n",
		f1, g1, simErr != nil)
	// Implied: Sim imitates well-formed and adversarial logs.
	f2 := deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}, {Lhs: []int{2}, Rhs: 3}}}
	g2 := deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 3}}}
	red2, err := deps.NewThm34Reduction(f2, g2)
	check(err)
	inst := relation.NewRel(3)
	inst.Add(relation.Tuple{"a", "b", "c"})
	inst.Add(relation.Tuple{"d", "b", "c"})
	in2 := append(red2.WellFormedInputs(inst), relation.NewInstance())
	run2, err := red2.TFG.Execute(relation.NewInstance(), in2)
	check(err)
	simIn, err := red2.SimInputsForLog(run2.Logs)
	imitated := false
	if err == nil {
		simRun, err2 := red2.Sim.Execute(relation.NewInstance(), simIn)
		check(err2)
		imitated = simRun.Logs.Equal(run2.Logs)
	}
	fmt.Printf("- F=%s, G=%s (F ⊨ G): Sim reproduces T_FG's log exactly: **%v**\n", f2, g2, imitated)
	fmt.Println()
	fmt.Println(expect(simErr != nil && imitated, "containment tracks implication, as the reduction requires"))
}

func e17() {
	fmt.Println("## E17 — Section 5: interacting transducers (future work, built)")
	fmt.Println()
	fmt.Println("Paper: raises consistency of systems of transducers as future work;")
	fmt.Println("the introduction's compatibility question: can contradictory models")
	fmt.Println("(pay-after-delivery vs deliver-after-payment) ever trade? Measured")
	fmt.Println("with a bounded exhaustive search over joint runs:")
	fmt.Println()
	goal, err := verify.ParseGoal("deliver(widget)")
	check(err)
	pool := []relation.Const{"widget"}
	build := func(customer string) *compose.Network {
		n := compose.New()
		db := relation.NewInstance()
		db.Add("price", relation.Tuple{"widget", "5"})
		check(n.AddNode("supplier", core.MustParseProgram(supplierSrc), db))
		check(n.AddNode("customer", core.MustParseProgram(customer), nil))
		check(n.Connect("customer", "order", "supplier", "order"))
		check(n.Connect("customer", "pay", "supplier", "pay"))
		check(n.Connect("supplier", "invoice", "customer", "invoice"))
		check(n.Connect("supplier", "deliver", "customer", "arrived"))
		return n
	}
	rPrompt, err := build(promptCustomerSrc).Compatible([]compose.Goal{{Node: "supplier", G: goal}}, pool, 5)
	check(err)
	rStubborn, err := build(stubbornCustomerSrc).Compatible([]compose.Goal{{Node: "supplier", G: goal}}, pool, 5)
	check(err)
	fmt.Printf("- prompt customer (pays on invoice): compatible = **%v** (%d runs explored)\n",
		rPrompt.Compatible, rPrompt.Explored)
	fmt.Printf("- stubborn customer (pays after delivery): compatible = **%v** (%d runs explored) — deadlock\n",
		rStubborn.Compatible, rStubborn.Explored)
	fmt.Println()
	fmt.Println(expect(rPrompt.Compatible && !rStubborn.Compatible, "compatibility search separates the two markets"))
}

const supplierSrc = `
transducer supplier
schema
  database: price/2;
  input: order/1, pay/2;
  state: past-order/1, past-pay/2;
  output: invoice/2, deliver/1, error/0;
  log: invoice, deliver;
state rules
  past-order(X) +:- order(X);
  past-pay(X,Y) +:- pay(X,Y);
output rules
  invoice(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y);
  deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y);
  error :- pay(X,Y), NOT past-order(X);
  error :- pay(X,Y), NOT price(X,Y);
`

const promptCustomerSrc = `
transducer prompt
schema
  input: want/1, invoice/2, arrived/1;
  state: past-want/1, past-invoice/2, past-arrived/1;
  output: order/1, pay/2, error/0;
  log: order, pay;
state rules
  past-want(X) +:- want(X);
  past-invoice(X,Y) +:- invoice(X,Y);
  past-arrived(X) +:- arrived(X);
output rules
  order(X) :- want(X), NOT past-want(X);
  pay(X,Y) :- invoice(X,Y), NOT past-invoice(X,Y);
`

const stubbornCustomerSrc = `
transducer stubborn
schema
  input: want/1, invoice/2, arrived/1;
  state: past-want/1, past-invoice/2, past-arrived/1;
  output: order/1, pay/2, error/0;
  log: order, pay;
state rules
  past-want(X) +:- want(X);
  past-invoice(X,Y) +:- invoice(X,Y);
  past-arrived(X) +:- arrived(X);
output rules
  order(X) :- want(X), NOT past-want(X);
  pay(X,Y) :- past-invoice(X,Y), arrived(X);
`

func s1() {
	fmt.Println("## S1 — substrate: the CDCL SAT solver")
	fmt.Println()
	fmt.Println("| instance | result | time |")
	fmt.Println("|----------|--------|------|")
	for n := 5; n <= 7; n++ {
		s := pigeonhole(n)
		var res sat.Status
		d := timed(func() { res = s.Solve() })
		fmt.Printf("| pigeonhole %d→%d | %v | %v |\n", n+1, n, res, d.Round(time.Microsecond))
	}
	rnd := rand.New(rand.NewSource(7))
	nVars := 100
	s := sat.New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for c := 0; c < int(4.26*float64(nVars)); c++ {
		var cl []int
		for k := 0; k < 3; k++ {
			l := 1 + rnd.Intn(nVars)
			if rnd.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		s.AddClause(cl...)
	}
	var res sat.Status
	d := timed(func() { res = s.Solve() })
	props, confls, decs := s.Stats()
	fmt.Printf("| random 3-SAT n=%d @4.26 | %v | %v |\n", nVars, res, d.Round(time.Microsecond))
	fmt.Println()
	fmt.Printf("random 3-SAT stats: %d propagations, %d conflicts, %d decisions\n", props, confls, decs)
}

func pigeonhole(n int) *sat.Solver {
	s := sat.New()
	p := make([][]int, n+1)
	for i := 0; i <= n; i++ {
		p[i] = make([]int, n)
		for j := 0; j < n; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(-p[i][j], -p[k][j])
			}
		}
	}
	return s
}

func s2() {
	fmt.Println("## S2 — substrate: datalog evaluation throughput")
	fmt.Println()
	fmt.Println("FRIENDLY on synthetic catalogs (one order+pay step per product):")
	fmt.Println()
	fmt.Println("| products | steps | total facts derived | time | steps/sec |")
	fmt.Println("|----------|-------|---------------------|------|-----------|")
	for _, n := range []int{10, 50, 200} {
		m := models.Friendly()
		db := relation.NewInstance()
		var seq relation.Sequence
		for i := 0; i < n; i++ {
			p := relation.Const(fmt.Sprintf("p%d", i))
			price := relation.Const(fmt.Sprintf("%d", 100+i))
			db.Add("price", relation.Tuple{p, price})
			db.Add("available", relation.Tuple{p})
			s1 := relation.NewInstance()
			s1.Add("order", relation.Tuple{p})
			s2 := relation.NewInstance()
			s2.Add("pay", relation.Tuple{p, price})
			seq = append(seq, s1, s2)
		}
		var run *core.Run
		d := timed(func() {
			var err error
			run, err = m.Execute(db, seq)
			check(err)
		})
		facts := 0
		for _, out := range run.Outputs {
			facts += out.Len()
		}
		fmt.Printf("| %d | %d | %d | %v | %.0f |\n",
			n, len(seq), facts, d.Round(time.Millisecond),
			float64(len(seq))/d.Seconds())
	}
}
