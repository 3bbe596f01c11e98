package fol

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dlog"
	"repro/internal/relation"
	"repro/internal/sat"
)

func x(name string) dlog.Term  { return dlog.V(name) }
func cs(name string) dlog.Term { return dlog.C(name) }

func rel(arity int, tuples ...relation.Tuple) *relation.Rel {
	r := relation.NewRel(arity)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

func TestNNFDeMorgan(t *testing.T) {
	f := NotF(AndF(AtomF("p", x("X")), NotF(AtomF("q", x("X")))))
	g := NNF(Forall{Vars: []string{"X"}, F: f})
	// Evaluate both on a small structure to confirm equivalence.
	rels := map[string]*relation.Rel{
		"p": rel(1, relation.Tuple{"a"}),
		"q": rel(1, relation.Tuple{"a"}, relation.Tuple{"b"}),
	}
	dom := []relation.Const{"a", "b"}
	orig := Eval(Forall{Vars: []string{"X"}, F: f}, rels, dom, map[string]relation.Const{})
	conv := Eval(g, rels, dom, map[string]relation.Const{})
	if orig != conv {
		t.Errorf("NNF changed semantics: %v vs %v", orig, conv)
	}
	// The NNF result must not contain Not over composite formulas.
	var check func(h Formula) bool
	check = func(h Formula) bool {
		switch u := h.(type) {
		case Not:
			switch u.F.(type) {
			case Atom, Equal:
				return true
			default:
				return false
			}
		case And:
			for _, v := range u.Fs {
				if !check(v) {
					return false
				}
			}
		case Or:
			for _, v := range u.Fs {
				if !check(v) {
					return false
				}
			}
		case Exists:
			return check(u.F)
		case Forall:
			return check(u.F)
		}
		return true
	}
	if !check(g) {
		t.Errorf("not in NNF: %s", g)
	}
}

func TestCheckBS(t *testing.T) {
	ok := ExistsF([]string{"X"}, ForallF([]string{"Y"}, OrF(AtomF("p", x("X")), NotF(AtomF("p", x("Y"))))))
	if n, err := CheckBS(ok); err != nil || n != 1 {
		t.Errorf("CheckBS = %d, %v", n, err)
	}
	bad := ForallF([]string{"Y"}, ExistsF([]string{"X"}, AtomF("r", x("X"), x("Y"))))
	if _, err := CheckBS(bad); err == nil {
		t.Error("∀∃ accepted as BS")
	}
}

func TestSolveSimpleSat(t *testing.T) {
	// ∃x p(x) with p free: satisfiable, witness in model.
	res, err := Solve(&Problem{
		Formula: ExistsF([]string{"X"}, AtomF("p", x("X"))),
		Free:    map[string]int{"p": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model["p"].Len() == 0 {
		t.Error("model has empty p despite ∃x p(x)")
	}
}

func TestSolveSimpleUnsat(t *testing.T) {
	// ∃x p(x) ∧ ∀y ¬p(y): unsatisfiable.
	f := AndF(
		ExistsF([]string{"X"}, AtomF("p", x("X"))),
		ForallF([]string{"Y"}, NotF(AtomF("p", x("Y")))),
	)
	res, err := Solve(&Problem{Formula: f, Free: map[string]int{"p": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", res.Status)
	}
}

func TestSolveFixedPredicates(t *testing.T) {
	price := rel(2,
		relation.Tuple{"time", "855"},
		relation.Tuple{"newsweek", "845"},
	)
	// ∃x,y price(x,y) ∧ y = 845 — satisfiable with x=newsweek.
	f := ExistsF([]string{"X", "Y"}, AndF(
		AtomF("price", x("X"), x("Y")),
		Eq(x("Y"), cs("845")),
	))
	res, err := Solve(&Problem{Formula: f, Fixed: map[string]*relation.Rel{"price": price}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	// ∃x price(x, 999) — unsatisfiable (closed world).
	g := ExistsF([]string{"X"}, AtomF("price", x("X"), cs("999")))
	res2, err := Solve(&Problem{Formula: g, Fixed: map[string]*relation.Rel{"price": price}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("closed world violated: %v", res2.Status)
	}
}

func TestSolveWitnessDistinctFromConstants(t *testing.T) {
	// ∃x (x ≠ a ∧ x ≠ b ∧ p(x)): needs a fresh witness element.
	f := ExistsF([]string{"X"}, AndF(
		Neq(x("X"), cs("a")),
		Neq(x("X"), cs("b")),
		AtomF("p", x("X")),
	))
	res, err := Solve(&Problem{
		Formula:     f,
		Free:        map[string]int{"p": 1},
		ExtraConsts: []relation.Const{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v; small-model witnesses missing", res.Status)
	}
}

func TestSolveUniversalInclusion(t *testing.T) {
	// ∀x,y (r(x,y) → (x=a ∧ y=b)) ∧ ∃x,y r(x,y):
	// forces r = {(a,b)}.
	f := AndF(
		ForallF([]string{"X", "Y"}, Implies(
			AtomF("r", x("X"), x("Y")),
			AndF(Eq(x("X"), cs("a")), Eq(x("Y"), cs("b"))),
		)),
		ExistsF([]string{"U", "V"}, AtomF("r", x("U"), x("V"))),
	)
	res, err := Solve(&Problem{Formula: f, Free: map[string]int{"r": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	r := res.Model["r"]
	if r.Len() != 1 || !r.Has(relation.Tuple{"a", "b"}) {
		t.Errorf("model r = %s, want {(a,b)}", r)
	}
}

func TestSolveEqualityBetweenExistentials(t *testing.T) {
	// ∃x ∃y (x = y ∧ p(x) ∧ ¬q(y)) with p,q free — satisfiable.
	f := ExistsF([]string{"X", "Y"}, AndF(
		Eq(x("X"), x("Y")),
		AtomF("p", x("X")),
		NotF(AtomF("q", x("Y"))),
	))
	res, err := Solve(&Problem{Formula: f, Free: map[string]int{"p": 1, "q": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	// ∃x,y (x=y ∧ x≠y) — unsatisfiable.
	g := ExistsF([]string{"X", "Y"}, AndF(Eq(x("X"), x("Y")), Neq(x("X"), x("Y"))))
	res2, err := Solve(&Problem{Formula: g})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("x=y ∧ x≠y = %v", res2.Status)
	}
}

func TestSolveErrors(t *testing.T) {
	// Free variable.
	if _, err := Solve(&Problem{Formula: AtomF("p", x("X")), Free: map[string]int{"p": 1}}); err == nil {
		t.Error("free variable accepted")
	}
	// Undeclared predicate.
	if _, err := Solve(&Problem{Formula: ExistsF([]string{"X"}, AtomF("p", x("X")))}); err == nil {
		t.Error("undeclared predicate accepted")
	}
	// Arity mismatch with declaration.
	if _, err := Solve(&Problem{
		Formula: ExistsF([]string{"X"}, AtomF("p", x("X"))),
		Free:    map[string]int{"p": 2},
	}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Not BS.
	bad := ForallF([]string{"Y"}, ExistsF([]string{"X"}, AtomF("r", x("X"), x("Y"))))
	if _, err := Solve(&Problem{Formula: bad, Free: map[string]int{"r": 2}}); err == nil {
		t.Error("∀∃ sentence accepted")
	}
}

func TestRenameBoundUnique(t *testing.T) {
	f := AndF(
		ExistsF([]string{"X"}, AtomF("p", x("X"))),
		ExistsF([]string{"X"}, AtomF("q", x("X"))),
	)
	g := RenameBound(f)
	names := map[string]bool{}
	var walk func(h Formula)
	walk = func(h Formula) {
		switch u := h.(type) {
		case Exists:
			for _, v := range u.Vars {
				if names[v] {
					t.Errorf("duplicate bound variable %s after RenameBound", v)
				}
				names[v] = true
			}
			walk(u.F)
		case Forall:
			walk(u.F)
		case And:
			for _, w := range u.Fs {
				walk(w)
			}
		case Or:
			for _, w := range u.Fs {
				walk(w)
			}
		case Not:
			walk(u.F)
		}
	}
	walk(g)
	if len(names) != 2 {
		t.Errorf("expected 2 bound vars, got %d", len(names))
	}
}

// randomBSFormula builds a random closed BS sentence over unary/binary free
// predicates p/1, r/2 and constants {a,b}.
func randomBSFormula(rnd *rand.Rand, depth int, scope []string) Formula {
	mkTerm := func() dlog.Term {
		if len(scope) > 0 && rnd.Intn(2) == 0 {
			return x(scope[rnd.Intn(len(scope))])
		}
		return cs([]string{"a", "b"}[rnd.Intn(2)])
	}
	atom := func() Formula {
		var f Formula
		if rnd.Intn(3) == 0 {
			f = Eq(mkTerm(), mkTerm())
		} else if rnd.Intn(2) == 0 {
			f = AtomF("p", mkTerm())
		} else {
			f = AtomF("r", mkTerm(), mkTerm())
		}
		if rnd.Intn(2) == 0 {
			f = NotF(f)
		}
		return f
	}
	if depth == 0 {
		return atom()
	}
	switch rnd.Intn(3) {
	case 0:
		return AndF(randomBSFormula(rnd, depth-1, scope), randomBSFormula(rnd, depth-1, scope))
	case 1:
		return OrF(randomBSFormula(rnd, depth-1, scope), randomBSFormula(rnd, depth-1, scope))
	default:
		return atom()
	}
}

// fixedAtom builds a random atom over the fixed predicates g/1 and s/2,
// its terms drawn from scope and the constants {a,b}.
func fixedAtom(rnd *rand.Rand, scope []string) Formula {
	mkTerm := func() dlog.Term {
		if len(scope) > 0 && rnd.Intn(4) != 0 {
			return x(scope[rnd.Intn(len(scope))])
		}
		return cs([]string{"a", "b"}[rnd.Intn(2)])
	}
	if rnd.Intn(2) == 0 {
		return AtomF("g", mkTerm())
	}
	return AtomF("s", mkTerm(), mkTerm())
}

// randomFixedRels draws seeded extensions of g/1 and s/2 over consts.
func randomFixedRels(rnd *rand.Rand, consts ...relation.Const) map[string]*relation.Rel {
	g, s := relation.NewRel(1), relation.NewRel(2)
	for _, c := range consts {
		if rnd.Intn(2) == 0 {
			g.Add(relation.Tuple{c})
		}
		for _, d := range consts {
			if rnd.Intn(2) == 0 {
				s.Add(relation.Tuple{c, d})
			}
		}
	}
	return map[string]*relation.Rel{"g": g, "s": s}
}

// randomMixedSentence builds a random closed BS sentence over the free p/1,
// r/2 and the fixed g/1, s/2. Fixed atoms appear in the matrix with either
// sign, as conjuncts of an existential block and as negated disjuncts of a
// universal one, so they act as guards of both quantifiers.
func randomMixedSentence(rnd *rand.Rand) Formula {
	k, m := rnd.Intn(3), rnd.Intn(3)
	evs := []string{"X", "Y"}[:k]
	uvs := []string{"U", "V"}[:m]
	all := append(append([]string{}, evs...), uvs...)
	maybeNot := func(f Formula) Formula {
		if rnd.Intn(2) == 0 {
			return NotF(f)
		}
		return f
	}
	matrix := func(scope []string) Formula {
		f := randomBSFormula(rnd, 2, scope)
		if rnd.Intn(2) == 0 {
			f = AndF(f, maybeNot(fixedAtom(rnd, scope)))
		} else {
			f = OrF(f, maybeNot(fixedAtom(rnd, scope)))
		}
		return f
	}
	var eGuards, uGuards []Formula
	for i := rnd.Intn(3); i > 0; i-- {
		eGuards = append(eGuards, fixedAtom(rnd, evs))
	}
	for i := rnd.Intn(3); i > 0; i-- {
		uGuards = append(uGuards, NotF(fixedAtom(rnd, all)))
	}
	switch rnd.Intn(3) {
	case 0:
		// ∃x̄ (E ∧ ∀ū (¬U ∨ φ))
		return ExistsF(evs, AndF(append(eGuards, ForallF(uvs, OrF(append(uGuards, matrix(all))...)))...))
	case 1:
		// ∃x̄ (E ∧ φ) ∧ ∀ū (¬U ∨ ψ), the universal block over ū alone
		var ug []Formula
		for i := rnd.Intn(3); i > 0; i-- {
			ug = append(ug, NotF(fixedAtom(rnd, uvs)))
		}
		return AndF(
			ExistsF(evs, AndF(append(eGuards, matrix(evs))...)),
			ForallF(uvs, OrF(append(ug, matrix(uvs))...)))
	default:
		// ∃x̄ ∀ū φ
		return ExistsF(evs, ForallF(uvs, matrix(all)))
	}
}

// TestPropSolveMatchesBruteForce cross-checks the grounder against explicit
// enumeration of all free-predicate extensions over the same finite domain,
// on sentences that mix free predicates with fixed ones under both
// quantifiers. One witness element keeps the domain at three elements at
// most, whatever the number of existentials.
func TestPropSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fixed := randomFixedRels(rnd, "a", "b")
		sentence := randomMixedSentence(rnd)
		res, err := Solve(&Problem{
			Formula:   sentence,
			Fixed:     fixed,
			Free:      map[string]int{"p": 1, "r": 2},
			Witnesses: 1,
		})
		if err != nil {
			t.Logf("solve error: %v", err)
			return false
		}
		got := res.Status == sat.Sat
		want := bruteForceSatisfiable(sentence, fixed, res.Domain)
		if got != want {
			t.Logf("mismatch on %s with g=%v s=%v over %v: solver=%v brute=%v", sentence, fixed["g"], fixed["s"], res.Domain, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bruteForceSatisfiable enumerates all extensions of p/1 and r/2 over the
// domain and evaluates the sentence directly, beside the fixed relations.
func bruteForceSatisfiable(f Formula, fixed map[string]*relation.Rel, domain []relation.Const) bool {
	n := len(domain)
	nP := n
	nR := n * n
	if nP+nR > 20 {
		panic("domain too large for brute force")
	}
	for mask := 0; mask < 1<<(nP+nR); mask++ {
		p := relation.NewRel(1)
		r := relation.NewRel(2)
		for i := 0; i < nP; i++ {
			if mask&(1<<i) != 0 {
				p.Add(relation.Tuple{domain[i]})
			}
		}
		for i := 0; i < nR; i++ {
			if mask&(1<<(nP+i)) != 0 {
				r.Add(relation.Tuple{domain[i/n], domain[i%n]})
			}
		}
		rels := map[string]*relation.Rel{"p": p, "r": r}
		for name, rel := range fixed {
			rels[name] = rel
		}
		if Eval(f, rels, domain, map[string]relation.Const{}) {
			return true
		}
	}
	return false
}

// TestPropModelSatisfiesFormula: whenever the solver reports Sat, evaluating
// the formula over the extracted model must yield true.
func TestPropModelSatisfiesFormula(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		evs := []string{"X"}
		uvs := []string{"U"}
		matrix := randomBSFormula(rnd, 2, []string{"X", "U"})
		sentence := ExistsF(evs, ForallF(uvs, matrix))
		res, err := Solve(&Problem{
			Formula: sentence,
			Free:    map[string]int{"p": 1, "r": 2},
		})
		if err != nil || res.Status != sat.Sat {
			return true // nothing to check
		}
		rels := map[string]*relation.Rel{"p": res.Model["p"], "r": res.Model["r"]}
		return Eval(sentence, rels, res.Domain, map[string]relation.Const{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolveStatsPopulated(t *testing.T) {
	res, err := Solve(&Problem{
		Formula: ExistsF([]string{"X"}, AtomF("p", x("X"))),
		Free:    map[string]int{"p": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vars == 0 || res.Clauses == 0 {
		t.Errorf("stats empty: vars=%d clauses=%d", res.Vars, res.Clauses)
	}
}
