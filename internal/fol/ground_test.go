package fol

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dlog"
	"repro/internal/relation"
	"repro/internal/sat"
)

// TestGroundingCarriesAddClauseError forces a bad literal into the
// grounder's clause intake: grounding must stop with the solver's error,
// not drop the clause and go on (which could turn UNSAT into SAT).
func TestGroundingCarriesAddClauseError(t *testing.T) {
	p := &Problem{Free: map[string]int{"p": 0}}
	g := newGrounder(p, map[string]int{"p": 0}, []relation.Const{"a"})
	g.orLit([]int{g.trueVar, g.solver.NumVars() + 2}) // past the aux orLit declares
	if _, err := g.lit(AtomF("p"), false); !errors.Is(err, sat.ErrBadLiteral) {
		t.Fatalf("grounding after a rejected clause: err = %v, want %v", err, sat.ErrBadLiteral)
	}
}

// TestWideAtomKeys grounds a sentence whose 15-ary predicates over 21
// domain elements do not fit packed word keys, so atoms are keyed by byte
// strings: answers, models and witnesses must come out as they would under
// packed keys.
func TestWideAtomKeys(t *testing.T) {
	var consts []relation.Const
	for i := 0; i < 20; i++ {
		consts = append(consts, relation.Const(fmt.Sprintf("c%02d", i)))
	}
	// args(h) is h followed by c01 … c14.
	args := func(h dlog.Term) []dlog.Term {
		out := []dlog.Term{h}
		for i := 1; i < 15; i++ {
			out = append(out, cs(string(consts[i])))
		}
		return out
	}
	fixed := relation.NewRel(15)
	fixed.Add(append(relation.Tuple{consts[0]}, consts[1:15]...))
	// s(X, …) → r(X, …) for all X forces r(c00, …); the existential asks for
	// another r fact besides, and ¬r(c05, …) rules one element out.
	sentence := AndF(
		ForallF([]string{"X"}, Implies(AtomF("s", args(x("X"))...), AtomF("r", args(x("X"))...))),
		ExistsF([]string{"Y"}, AndF(AtomF("r", args(x("Y"))...), Neq(x("Y"), cs("c00")))),
		NotF(AtomF("r", args(cs("c05"))...)),
	)
	p := &Problem{
		Formula:     sentence,
		Fixed:       map[string]*relation.Rel{"s": fixed},
		Free:        map[string]int{"r": 15},
		ExtraConsts: consts,
	}
	if g := newGrounder(p, Preds(sentence), consts); !g.wide {
		t.Fatal("15-ary predicates over 20 constants fit a packed key; the test needs wide keys")
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status = %v, want SAT", res.Status)
	}
	r := res.Model["r"]
	if !r.Has(append(relation.Tuple{consts[0]}, consts[1:15]...)) {
		t.Errorf("model r misses the forced fact r(c00, …): %v", r)
	}
	if r.Has(append(relation.Tuple{consts[5]}, consts[1:15]...)) {
		t.Errorf("model r holds the excluded fact r(c05, …): %v", r)
	}
	var y relation.Const
	for name, c := range res.Witness {
		y = c
		if !r.Has(append(relation.Tuple{c}, consts[1:15]...)) {
			t.Errorf("witness %s = %s has no r fact", name, c)
		}
	}
	if y == "" || y == consts[0] || y == consts[5] {
		t.Errorf("witness %q, want an element other than c00 and c05", y)
	}

	// Requiring r(c05, …) as well makes it UNSAT.
	p.Formula = AndF(sentence, AtomF("r", args(cs("c05"))...))
	if res, err := Solve(p); err != nil || res.Status != sat.Unsat {
		t.Fatalf("contradictory sentence: %v, %v; want UNSAT", res.Status, err)
	}
}
