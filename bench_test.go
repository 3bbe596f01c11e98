package spocus

// One benchmark per experiment of DESIGN.md's per-experiment index
// (E1–E17) plus the substrate benchmarks (S1–S2). Each times the fixtures
// internal/experiments defines for the EXPERIMENTS.md report, and asserts
// the outcome inside the loop, so a regression in correctness fails the
// run rather than silently timing the wrong thing. ci/test.sh runs them all
// once (-benchtime=1x).

import (
	"fmt"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/tsdi"
	"repro/internal/turing"
	"repro/internal/verify"
)

// BenchmarkE1ShortRun regenerates the Figure 1 run of SHORT.
func BenchmarkE1ShortRun(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	inputs := models.Fig1Inputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := m.Execute(db, inputs)
		if err != nil || !experiments.Fig1Holds(run) {
			b.Fatal("wrong run")
		}
	}
}

// BenchmarkE2FriendlyRun regenerates the Figure 2 run of FRIENDLY.
func BenchmarkE2FriendlyRun(b *testing.B) {
	m := models.Friendly()
	db := models.MagazineDB()
	inputs := models.Fig2Inputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := m.Execute(db, inputs)
		if err != nil || !experiments.Fig2Holds(run) {
			b.Fatal("wrong run")
		}
	}
}

// BenchmarkE3LogValidity times Theorem 3.1 on genuine logs of SHORT, one
// sub-benchmark per run length (the fixed-schema polynomial shape).
func BenchmarkE3LogValidity(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	for _, n := range []int{1, 2, 4} {
		run, err := m.Execute(db, experiments.OrderPay(0, n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("steps=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.LogValidity(m, db, run.Logs, nil)
				if err != nil || !res.Valid {
					b.Fatal("genuine log rejected")
				}
			}
		})
	}
}

// BenchmarkE4ArityShape times a one-step log validity question as the
// schema arity grows (the NEXPTIME shape).
func BenchmarkE4ArityShape(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		m, logSeq := experiments.Echo(k), experiments.EchoLog(k)
		b.Run(fmt.Sprintf("arity=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.LogValidity(m, nil, logSeq, nil)
				if err != nil || !res.Valid {
					b.Fatal("echo log rejected")
				}
			}
		})
	}
}

// BenchmarkE3LogValidityParallel times the Theorem 3.1 batch API (one log
// per customer session) under the sequential and the parallel engine. The
// verdicts are identical by construction; the par=4 sub-benchmark should
// show a measurable speedup over par=1 on a multi-core machine.
func BenchmarkE3LogValidityParallel(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	var logs []relation.Sequence
	for s := 0; s < 12; s++ {
		run, err := m.Execute(db, experiments.OrderPay(s, 2+s%3))
		if err != nil {
			b.Fatal(err)
		}
		logs = append(logs, run.Logs)
	}
	benchValidityBatch(b, m, db, logs)
}

// benchValidityBatch times LogValidityBatch on logs, every one of them
// genuine, at parallelism 1 and 4.
func benchValidityBatch(b *testing.B, m *core.Machine, db relation.Instance, logs []relation.Sequence) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.LogValidityBatch(m, db, logs, &verify.Options{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if !r.Valid {
						b.Fatal("genuine log rejected")
					}
				}
			}
		})
	}
}

// BenchmarkE4ArityShapeParallel times a batch of one-step arity-3 validity
// questions (the NEXPTIME grounding shape) under par=1 vs par=4.
func BenchmarkE4ArityShapeParallel(b *testing.B) {
	m := experiments.Echo(3)
	var logs []relation.Sequence
	for s := 0; s < 12; s++ {
		tup := relation.Tuple{
			relation.Const(fmt.Sprintf("a%d", s)),
			relation.Const(fmt.Sprintf("b%d", s%4)),
			relation.Const(fmt.Sprintf("c%d", s%2)),
		}
		step := relation.NewInstance()
		step.Add("out", tup)
		logs = append(logs, relation.Sequence{step})
	}
	benchValidityBatch(b, m, nil, logs)
}

// BenchmarkE5ProjectionReduction runs the Proposition 3.1 transducer on the
// paper's F ⊭ G witness.
func BenchmarkE5ProjectionReduction(b *testing.B) {
	p := experiments.NotImpliedPair()
	m, err := deps.Prop31Transducer(p.F, p.G)
	if err != nil {
		b.Fatal(err)
	}
	_, witness := p.Implies()
	seq := p.ViolGInputs(witness)
	empty := relation.NewInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := m.Execute(empty, seq)
		if err != nil || run.Outputs[1].Rel(deps.ViolG).Len() == 0 {
			b.Fatal("violg not derived")
		}
	}
}

// BenchmarkE6GoalReach times Theorem 3.2 on reachable and unreachable
// goals.
func BenchmarkE6GoalReach(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	for _, tc := range experiments.ReachGoals {
		g, err := verify.ParseGoal(tc.Goal)
		if err != nil {
			b.Fatal(err)
		}
		name := "unreachable"
		if tc.Reachable {
			name = "reachable"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.ReachGoal(m, db, g, nil)
				if err != nil || res.Reachable != tc.Reachable {
					b.Fatal("wrong verdict")
				}
			}
		})
	}
}

// BenchmarkE7Temporal times Theorem 3.3 on the payment property.
func BenchmarkE7Temporal(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	c, err := verify.ParseCondition(experiments.PaymentProperty)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.CheckTemporal(m, db, []*verify.Condition{c}, nil)
		if err != nil || !res.Holds {
			b.Fatal("property should hold")
		}
	}
}

// BenchmarkE8Containment times Theorem 3.5 on the short/friendly pair.
func BenchmarkE8Containment(b *testing.B) {
	short := experiments.FullLog(models.Short())
	friendly := experiments.FullLog(models.Friendly())
	db := models.MagazineDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Contains(short, friendly, db, nil)
		if err != nil || !res.Contained {
			b.Fatal("containment should hold")
		}
	}
}

// BenchmarkE9Propositional times the Gen(T) automaton construction and the
// flatness characterization for the ab*c transducer.
func BenchmarkE9Propositional(b *testing.B) {
	m := models.ABC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa, err := automata.ToAutomaton(m)
		if err != nil {
			b.Fatal(err)
		}
		d := nfa.Determinize().Minimize()
		if !d.Flat() || !d.PrefixClosed() {
			b.Fatal("characterization violated")
		}
	}
}

// BenchmarkE10Tsdi times E10 end to end: Theorem 4.1 compilation of the
// three example sentences, then enforcement cross-checked against sentence
// satisfaction on the report's 500 random sessions.
func BenchmarkE10Tsdi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, agree, _, err := experiments.EnforceCancelPolicy()
		if err != nil || agree != experiments.CancelSessions {
			b.Fatal("error-freeness differs from sentence satisfaction")
		}
	}
}

// BenchmarkE11TuringSim times a full three-stage Theorem 4.2 simulation of
// the deterministic "ab" writer.
func BenchmarkE11TuringSim(b *testing.B) {
	c := experiments.TuringCases()[1]
	tm, err := turing.Compile(c.M)
	if err != nil {
		b.Fatal(err)
	}
	var comp turing.Computation
	if err := c.M.Enumerate(c.Tape, 10, func(cc turing.Computation) bool {
		comp = cc
		return false
	}); err != nil {
		b.Fatal(err)
	}
	inputs, err := turing.DriveInputs(c.M, comp, -1)
	if err != nil {
		b.Fatal(err)
	}
	empty := relation.NewInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := tm.Execute(empty, inputs)
		if err != nil || !run.Valid(core.ErrorFree) {
			b.Fatal("simulation errored")
		}
	}
}

// BenchmarkE12ErrorFreeVerify times Theorem 4.4 on STRICT.
func BenchmarkE12ErrorFreeVerify(b *testing.B) {
	m := models.Strict()
	db := models.MagazineDB()
	s := tsdi.MustParse(experiments.PricedPayment)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.CheckErrorFree(m, db, s, nil)
		if err != nil || !res.Holds {
			b.Fatal("enforced sentence rejected")
		}
	}
}

// BenchmarkE12ErrorFreeVerifyParallel times Theorem 4.4 on STRICT with a
// multi-clause sentence, so the per-(clause, run length) subproblems give
// the engine a genuine intra-procedure fan-out (seven units here).
func BenchmarkE12ErrorFreeVerifyParallel(b *testing.B) {
	m := models.Strict()
	db := models.MagazineDB()
	s := tsdi.MustParse(
		experiments.PricedPayment,
		"pay(X,Y), past-order(X) => price(X,Y)",
		"order(X), past-order(X) => pay(X,X)",
		"pay(X,Y), past-pay(X,Y) => price(X,Y)",
	)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.CheckErrorFree(m, db, s, &verify.Options{Parallelism: par})
				if err != nil || !res.Holds {
					b.Fatal("enforced sentence rejected")
				}
			}
		})
	}
}

// BenchmarkE13ErrorFreeContain times Theorem 4.6 on strict vs stricter.
func BenchmarkE13ErrorFreeContain(b *testing.B) {
	t1, t2 := models.Stricter(), models.Strict()
	db := models.MagazineDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.ErrorFreeContained(t1, t2, db, nil)
		if err != nil || !res.Contained {
			b.Fatal("containment should hold")
		}
	}
}

// BenchmarkE14Acceptors times validity checking under the three acceptance
// modes on a guarded order;pay session.
func BenchmarkE14Acceptors(b *testing.B) {
	m := models.Guarded()
	db := models.MagazineDB()
	session := experiments.OrderPay(0, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := m.Execute(db, session)
		if err != nil || !run.Valid(core.ErrorFree) || run.Valid(core.OKEveryStep) {
			b.Fatal("acceptance verdicts wrong")
		}
	}
}

// BenchmarkE15LogMinimize times the bounded determinacy check behind log
// minimization.
func BenchmarkE15LogMinimize(b *testing.B) {
	m := models.Short()
	db := models.MagazineDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.RemovableFromLog(m, db, "deliver", 2, nil)
		if err != nil || !res.Removable {
			b.Fatal("deliver should be removable")
		}
	}
}

// BenchmarkE16ContainmentReduction times the Theorem 3.4 reduction end to
// end on the paper's example.
func BenchmarkE16ContainmentReduction(b *testing.B) {
	p := experiments.NotImpliedPair()
	_, witness := p.Implies()
	empty := relation.NewInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := deps.NewThm34Reduction(p.F, p.G)
		if err != nil {
			b.Fatal(err)
		}
		inputs := append(red.WellFormedInputs(witness), relation.NewInstance())
		run, err := red.TFG.Execute(empty, inputs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := red.SimInputsForLog(run.Logs); err == nil {
			b.Fatal("Sim imitated a non-implication witness")
		}
	}
}

// BenchmarkE17Compose times the bounded compatibility search on the
// prompt customer/supplier market.
func BenchmarkE17Compose(b *testing.B) {
	customer := experiments.PromptCustomer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Trade(customer)
		if err != nil || !res.Compatible {
			b.Fatal("market should be compatible")
		}
	}
}

// BenchmarkS1SAT times the CDCL solver on pigeonhole instances.
func BenchmarkS1SAT(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		b.Run(fmt.Sprintf("php%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if experiments.Pigeonhole(n).Solve() != sat.Unsat {
					b.Fatal("PHP should be unsat")
				}
			}
		})
	}
}

// BenchmarkS2Datalog times FRIENDLY steps over growing catalogs.
func BenchmarkS2Datalog(b *testing.B) {
	m := models.Friendly()
	for _, n := range []int{10, 50} {
		db, seq := experiments.Catalogue(n)
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Execute(db, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
