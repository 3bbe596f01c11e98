package fol

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dlog"
	"repro/internal/relation"
	"repro/internal/sat"
)

// sentenceGen builds random sentences in negation normal form over the free
// p/1, r/2 and the fixed g/1, s/2, with quantifier blocks nested anywhere a
// block may occur: existentials outside universal scope (or anywhere, for
// finite-domain problems), universals anywhere. Blocks are guarded at random
// — fixed conjuncts of an existential, negated fixed disjuncts of a
// universal — over their own variables, the variables in scope and
// constants, with repeated variables, and with fixed literals of the other
// sign that act as filters.
type sentenceGen struct {
	rnd    *rand.Rand
	fresh  int
	finite bool
}

func (sg *sentenceGen) term(scope []string) dlog.Term {
	if len(scope) > 0 && sg.rnd.Intn(4) != 0 {
		return x(scope[sg.rnd.Intn(len(scope))])
	}
	return cs([]string{"a", "b", "c"}[sg.rnd.Intn(3)])
}

func (sg *sentenceGen) atom(scope []string, fixed bool) Formula {
	switch k := sg.rnd.Intn(4); {
	case !fixed && k == 0:
		return Eq(sg.term(scope), sg.term(scope))
	case !fixed && k == 1:
		return AtomF("p", sg.term(scope))
	case !fixed:
		return AtomF("r", sg.term(scope), sg.term(scope))
	case k < 2:
		return AtomF("g", sg.term(scope))
	default:
		return AtomF("s", sg.term(scope), sg.term(scope))
	}
}

func (sg *sentenceGen) literal(scope []string) Formula {
	f := sg.atom(scope, sg.rnd.Intn(3) == 0)
	if sg.rnd.Intn(2) == 0 {
		return NotF(f)
	}
	return f
}

func (sg *sentenceGen) formula(depth int, scope []string, underForall bool) Formula {
	if depth == 0 {
		return sg.literal(scope)
	}
	switch sg.rnd.Intn(5) {
	case 0:
		return AndF(sg.formula(depth-1, scope, underForall), sg.formula(depth-1, scope, underForall))
	case 1:
		return OrF(sg.formula(depth-1, scope, underForall), sg.formula(depth-1, scope, underForall))
	case 2:
		if underForall && !sg.finite {
			return sg.block(depth, scope, true, underForall)
		}
		return sg.block(depth, scope, false, underForall)
	case 3:
		return sg.block(depth, scope, true, underForall)
	default:
		return sg.literal(scope)
	}
}

// block builds ∃x̄ (guards ∧ filters ∧ φ) or ∀x̄ (¬guards ∨ ¬filters ∨ φ).
func (sg *sentenceGen) block(depth int, scope []string, forall, underForall bool) Formula {
	var vars []string
	for i := 1 + sg.rnd.Intn(2); i > 0; i-- {
		sg.fresh++
		vars = append(vars, fmt.Sprintf("V%d", sg.fresh))
	}
	inner := append(append([]string{}, scope...), vars...)
	var items []Formula
	for i := sg.rnd.Intn(3); i > 0; i-- {
		g := sg.atom(inner, true)
		if forall {
			g = NotF(g)
		}
		items = append(items, g)
	}
	if sg.rnd.Intn(3) == 0 {
		f := sg.atom(inner, true)
		if !forall {
			f = NotF(f)
		}
		items = append(items, f)
	}
	items = append(items, sg.formula(depth-1, inner, forall || underForall))
	if forall {
		return ForallF(vars, OrF(items...))
	}
	return ExistsF(vars, AndF(items...))
}

// checkAgainstNaive solves p with both grounders and fails unless their
// statuses agree, a Sat model satisfies the sentence beside the fixed
// relations, and the witness names an element for every existential outside
// universal scope — one that satisfies the body when the sentence is a
// single existential block over a quantifier-free body. It reports whether
// p is satisfiable.
func checkAgainstNaive(t *testing.T, label string, p *Problem) bool {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	naive, err := solveNaive(p)
	if err != nil {
		t.Fatalf("%s: naive: %v", label, err)
	}
	if res.Status != naive.Status {
		t.Fatalf("%s: guarded %v, naive %v on %s", label, res.Status, naive.Status, p.Formula)
	}
	if res.Status != sat.Sat {
		return false
	}
	rels := map[string]*relation.Rel{}
	for name, r := range p.Fixed {
		rels[name] = r
	}
	for name, r := range res.Model {
		rels[name] = r
	}
	f := RenameBound(NNF(p.Formula))
	if !Eval(f, rels, res.Domain, map[string]relation.Const{}) {
		t.Fatalf("%s: the model does not satisfy %s", label, p.Formula)
	}
	for _, v := range outerExistentials(f) {
		if _, ok := res.Witness[v]; !ok {
			t.Fatalf("%s: no witness for %s in %v", label, v, res.Witness)
		}
	}
	if e, ok := f.(Exists); ok && len(outerExistentials(e.F)) == 0 && quantifierFree(e.F) {
		if !Eval(e.F, rels, res.Domain, res.Witness) {
			t.Fatalf("%s: witness %v does not satisfy the body of %s", label, res.Witness, f)
		}
	}
	return true
}

func quantifierFree(f Formula) bool {
	switch t := f.(type) {
	case Exists, Forall:
		return false
	case Not:
		return quantifierFree(t.F)
	case And:
		for _, h := range t.Fs {
			if !quantifierFree(h) {
				return false
			}
		}
	case Or:
		for _, h := range t.Fs {
			if !quantifierFree(h) {
				return false
			}
		}
	}
	return true
}

// TestGuardedMatchesNaive decides seeded random problems with fixed
// relations with the guarded grounder and the naive one. (The problems the
// decision procedures build are checked the same way by
// TestGuardedMatchesNaiveOnGoldenProblems.)
func TestGuardedMatchesNaive(t *testing.T) {
	sats := 0
	const n = 2000
	for seed := int64(0); seed < n; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		sg := &sentenceGen{rnd: rnd, finite: seed%4 == 0}
		p := &Problem{
			Formula:      sg.formula(3, nil, false),
			Fixed:        randomFixedRels(rnd, "a", "b", "c"),
			Free:         map[string]int{"p": 1, "r": 2},
			FiniteDomain: sg.finite,
		}
		if checkAgainstNaive(t, fmt.Sprintf("seed %d", seed), p) {
			sats++
		}
	}
	t.Logf("%d random problems, %d satisfiable", n, sats)
}

// TestGuardedSentenceShapes pins the guard shapes one at a time: a join of
// two guards, a constant and a repeated variable in a guard, a filter, a
// guard over an outer universal's variable, and a guard over an outer
// selector, which cannot be probed.
func TestGuardedSentenceShapes(t *testing.T) {
	fixed := map[string]*relation.Rel{
		"g": rel(1, relation.Tuple{"a"}, relation.Tuple{"c"}),
		"s": rel(2, relation.Tuple{"a", "b"}, relation.Tuple{"b", "b"}, relation.Tuple{"c", "a"}, relation.Tuple{"c", "c"}),
	}
	X, Y, U := x("X"), x("Y"), x("U")
	for i, f := range []Formula{
		ExistsF([]string{"X", "Y"}, AndF(AtomF("s", X, Y), AtomF("g", Y), AtomF("p", X))),
		ExistsF([]string{"X"}, AndF(AtomF("s", cs("c"), X), NotF(AtomF("p", X)), AtomF("p", cs("a")))),
		ExistsF([]string{"X"}, AndF(AtomF("s", X, X), AtomF("r", X, X))),
		ExistsF([]string{"X", "Y"}, AndF(AtomF("s", X, Y), NotF(AtomF("g", X)), AtomF("r", Y, X))),
		ForallF([]string{"X", "Y"}, OrF(NotF(AtomF("s", X, Y)), AtomF("r", X, Y), AtomF("g", X))),
		AndF(
			ForallF([]string{"U"}, OrF(NotF(AtomF("g", U)), ExistsF([]string{"X"}, AndF(AtomF("s", U, X), AtomF("p", X))))),
			ForallF([]string{"U"}, NotF(AtomF("p", U)))),
		ExistsF([]string{"X"}, OrF(AtomF("p", X), ExistsF([]string{"Y"}, AndF(AtomF("s", X, Y), AtomF("r", X, Y))))),
		AndF(
			ExistsF([]string{"X"}, AndF(AtomF("g", X), ForallF([]string{"Y"}, OrF(NotF(AtomF("s", X, Y)), AtomF("r", X, Y))))),
			ForallF([]string{"U", "Y"}, NotF(AtomF("r", U, Y)))),
	} {
		finite := i == 5
		checkAgainstNaive(t, fmt.Sprintf("shape %d", i), &Problem{
			Formula:      f,
			Fixed:        fixed,
			Free:         map[string]int{"p": 1, "r": 2},
			FiniteDomain: finite,
		})
	}
}
