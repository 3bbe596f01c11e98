package fol_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fol"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/verify"
)

// goldenProblems builds, through the verify procedures, every problem the
// golden verdict suite (internal/verify, TestGoldenVerdicts) decides: the
// same models, databases, seeded prefixes and questions.
func goldenProblems(t *testing.T) []*fol.Problem {
	var mu sync.Mutex
	var out []*fol.Problem
	fol.SetObserver(func(p *fol.Problem) {
		q := *p
		q.Context = nil
		mu.Lock()
		out = append(out, &q)
		mu.Unlock()
	})
	defer fol.SetObserver(nil)
	opts := &verify.Options{Parallelism: 1}
	for _, name := range models.Names() {
		m := models.Get(name)
		if m.Kind() != core.KindSpocus {
			continue
		}
		db := models.DefaultDB(name)
		for _, db := range []relation.Instance{db, widened(db)} {
			s := m.Schema()
			for k, steps := range []int{0, 1, 3, 6} {
				prefix := goldenPrefix(m, db, int64(k+1), steps)
				for _, o := range s.Out {
					goal := goldenAtom(o.Name, o.Arity)
					g, err := verify.ParseGoal(goal)
					if err != nil {
						t.Fatal(err)
					}
					verify.ReachGoalFrom(m, db, prefix, g, opts)
					if steps == 0 {
						verify.ReachGoalFrom(m, db, nil, g, &verify.Options{Parallelism: 1, UnknownDB: true})
					}
					for _, in := range s.In {
						if in.Arity > o.Arity || !s.State.Has("past-"+in.Name) {
							continue
						}
						c, err := verify.ParseCondition(goal + " => " + goldenAtom("past-"+in.Name, in.Arity))
						if err != nil {
							t.Fatal(err)
						}
						verify.CheckTemporalFrom(m, db, prefix, []*verify.Condition{c}, opts)
					}
				}
				if steps == 0 {
					continue
				}
				run, err := m.Execute(db, prefix)
				if err != nil {
					t.Fatal(err)
				}
				reversed := make(relation.Sequence, len(run.Logs))
				for i, l := range run.Logs {
					reversed[len(run.Logs)-1-i] = l
				}
				verify.LogValidity(m, db, run.Logs, opts)
				verify.LogValidity(m, db, reversed, opts)
			}
		}
	}
	return out
}

// goldenPrefix, goldenAtom and widened draw prefixes, goals and the widened
// database exactly as the golden verdict suite does.
func goldenPrefix(m *core.Machine, db relation.Instance, seed int64, steps int) relation.Sequence {
	r := rand.New(rand.NewSource(seed))
	pool := append(db.ActiveDomain(), m.Constants()...)
	if len(pool) == 0 {
		pool = []relation.Const{"k1"}
	}
	in := m.Schema().In
	var seq relation.Sequence
	for i := 0; i < steps; i++ {
		step := relation.NewInstance()
		for f := 0; f < 1+r.Intn(2); f++ {
			d := in[r.Intn(len(in))]
			t := make(relation.Tuple, d.Arity)
			for j := range t {
				t[j] = pool[r.Intn(len(pool))]
			}
			step.Add(d.Name, t)
		}
		seq = append(seq, step)
	}
	return seq
}

func goldenAtom(pred string, arity int) string {
	if arity == 0 {
		return pred
	}
	s := pred + "("
	for i := 0; i < arity; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("X%d", i+1)
	}
	return s + ")"
}

func widened(db relation.Instance) relation.Instance {
	out := db.Clone()
	for name, r := range db {
		for _, t := range r.Tuples() {
			for _, suffix := range []string{"-2", "-3"} {
				u := make(relation.Tuple, len(t))
				for i, c := range t {
					u[i] = c + relation.Const(suffix)
				}
				out.Add(name, u)
			}
		}
	}
	return out
}

// TestGuardedMatchesNaiveOnGoldenProblems decides every problem of the
// golden verdict suite with the guarded grounder and with the naive one:
// the statuses must agree, and every Sat model must satisfy the sentence
// beside the fixed relations.
func TestGuardedMatchesNaiveOnGoldenProblems(t *testing.T) {
	problems := goldenProblems(t)
	if len(problems) < 900 {
		t.Fatalf("observed %d problems; the golden suite builds more than 900", len(problems))
	}
	var guardedVars, naiveVars, sats int
	for i, p := range problems {
		res, err := fol.Solve(p)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		naive, err := fol.SolveNaive(p)
		if err != nil {
			t.Fatalf("problem %d: naive: %v", i, err)
		}
		if res.Status != naive.Status {
			t.Fatalf("problem %d: guarded %v, naive %v on %s", i, res.Status, naive.Status, p.Formula)
		}
		guardedVars += res.Vars
		naiveVars += naive.Vars
		if res.Status != sat.Sat {
			continue
		}
		sats++
		rels := map[string]*relation.Rel{}
		for name, r := range p.Fixed {
			rels[name] = r
		}
		for name, r := range res.Model {
			rels[name] = r
		}
		if !fol.Eval(p.Formula, rels, res.Domain, map[string]relation.Const{}) {
			t.Fatalf("problem %d: the model does not satisfy %s", i, p.Formula)
		}
	}
	t.Logf("%d problems, %d satisfiable: %d SAT vars guarded, %d naive", len(problems), sats, guardedVars, naiveVars)
}
