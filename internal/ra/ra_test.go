package ra

import (
	"strings"
	"testing"

	"repro/internal/dlog"
	"repro/internal/relation"
)

func inst(add func(relation.Instance)) dlog.MultiDB {
	in := relation.NewInstance()
	add(in)
	return dlog.MultiDB{in}
}

func TestEvalTransitiveClosure(t *testing.T) {
	prog := dlog.MustParseProgram(`
		reach(X, Y) :- edge(X, Y);
		reach(X, Z) :- reach(X, Y), edge(Y, Z);
	`)
	plan, err := Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	edb := inst(func(in relation.Instance) {
		in.Add("edge", relation.Tuple{"a", "b"})
		in.Add("edge", relation.Tuple{"b", "c"})
		in.Add("edge", relation.Tuple{"c", "d"})
	})
	out, err := plan.Eval(edb)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	reach := out.Rel("reach")
	if reach.Len() != 6 {
		t.Fatalf("want 6 reach facts, got %d: %v", reach.Len(), out)
	}
	if !reach.Has(relation.Tuple{"a", "d"}) {
		t.Fatalf("missing reach(a, d): %v", out)
	}
}

func TestEvalArityMismatchYieldsNothing(t *testing.T) {
	// The tree engine skips tuples whose arity disagrees with the atom;
	// scans over a mismatched relation produce no bindings and negated
	// probes of one pass vacuously.
	prog := dlog.MustParseProgram(`
		p(X) :- q(X), NOT r(X);
	`)
	plan, err := Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	edb := inst(func(in relation.Instance) {
		in.Add("q", relation.Tuple{"a"})
		in.Add("r", relation.Tuple{"a", "b"}) // arity 2: the NOT r(X) probe misses
	})
	out, err := plan.Eval(edb)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !out.Rel("p").Has(relation.Tuple{"a"}) {
		t.Fatalf("want p(a) (negation over mismatched arity passes), got %v", out)
	}
}

func TestCompileRejectsUnsafeRule(t *testing.T) {
	for _, src := range []string{
		`p(X) :- NOT q(X);`,       // negation variable never bound
		`p(X) :- q(Y);`,           // head variable never bound
		`p :- q(X), X <> Z;`,      // inequality variable never bound
		`p(X) :- q(X), NOT p(X);`, // negation cycle: not stratifiable
	} {
		if _, err := Compile(dlog.MustParseProgram(src), nil); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestCompileRejectsHeadArityConflict(t *testing.T) {
	prog := dlog.Program{
		{Head: dlog.Atom{Pred: "p", Args: []dlog.Term{{Name: "a"}}}},
		{Head: dlog.Atom{Pred: "p", Args: []dlog.Term{{Name: "a"}, {Name: "b"}}}},
	}
	if _, err := Compile(prog, nil); err == nil {
		t.Fatal("want head-arity conflict error")
	}
}

func TestGroundNegationBeforePositive(t *testing.T) {
	// Author order leads with an ungrounded negation; the planner must
	// defer it behind the positive literal that binds X.
	prog := dlog.MustParseProgram(`p(X) :- NOT r(X), q(X);`)
	plan, err := Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	edb := inst(func(in relation.Instance) {
		in.Add("q", relation.Tuple{"a"})
		in.Add("q", relation.Tuple{"b"})
		in.Add("r", relation.Tuple{"b"})
	})
	out, err := plan.Eval(edb)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	p := out.Rel("p")
	if p.Len() != 1 || !p.Has(relation.Tuple{"a"}) {
		t.Fatalf("want p(a) only, got %v", out)
	}
}

func TestPlanUsesIndexForBoundFirstArg(t *testing.T) {
	prog := dlog.MustParseProgram(`j(X, Z) :- a(X, Y), b(Y, Z);`)
	plan, err := Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// After scanning a, Y is bound: the b scan must be index-backed.
	if got := plan.Explain(); !strings.Contains(got, "scan b(") || !strings.Contains(got, "[index:first]") {
		t.Fatalf("want index-backed scan of b in plan:\n%s", got)
	}
}

// TestPlanOpensFromInput pins the join order the step path depends on: a
// rule's first pick has nothing bound, and must be the step's input — a
// handful of tuples — not the state relation the old free-variable
// tie-break chose, which grows all run and was scanned whole on every step.
func TestPlanOpensFromInput(t *testing.T) {
	prog := dlog.MustParseProgram(`deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y);`)
	opening := func(inputs ...string) string {
		plan, err := Compile(prog, nil, inputs...)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return plan.strata[0].rules[0].ops[0].pred
	}
	if got := opening(); got != "past-order" {
		t.Fatalf("with no input named the rule opens from %s, want past-order (fewest free variables)", got)
	}
	plan, err := Compile(prog, nil, "order", "pay")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := []string{
		"scan pay(→$0, →$1)",
		"anti past-pay($0, $1)",
		"probe price($0, $1)",
		"probe past-order($0)",
	}
	ops := plan.strata[0].rules[0].ops
	if len(ops) != len(want) {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	for i, o := range ops {
		if got := plan.fmtOp(o); got != want[i] {
			t.Fatalf("op %d is %q, want %q; plan:\n%s", i, got, want[i], plan.Explain())
		}
	}
	// More bound arguments still beat an input.
	prog = dlog.MustParseProgram(`r(X, Z) :- big(X, Y), in1(X), in2(Y, Z);`)
	plan, err = Compile(prog, nil, "in1", "in2")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ops = plan.strata[0].rules[0].ops
	if ops[0].pred != "in1" || ops[1].pred != "big" || !ops[1].useIndex || ops[2].pred != "in2" || !ops[2].useIndex {
		t.Fatalf("want in1, then big by index (one bound argument beats the unbound input in2), then in2 by index; plan:\n%s", plan.Explain())
	}
}

func TestInternerSharedAcrossPlans(t *testing.T) {
	in := NewInterner()
	p1, err := Compile(dlog.MustParseProgram(`p(X) :- q(X, time);`), in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(dlog.MustParseProgram(`r(X) :- s(X, time);`), in)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Interner() != p2.Interner() {
		t.Fatal("plans do not share the interner")
	}
	id1 := in.ID("time")
	if in.Sym(id1) != "time" {
		t.Fatalf("round trip: Sym(ID(time)) = %q", in.Sym(id1))
	}
	if n := in.Len(); n != 1 {
		t.Fatalf("want 1 interned constant (time shared by both plans), got %d", n)
	}
}

func TestEqualityChainBinding(t *testing.T) {
	prog := dlog.MustParseProgram(`p(X, Y) :- X = a, Y = X, NOT q(X, Y);`)
	plan, err := Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := plan.Eval(inst(func(in relation.Instance) {}))
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !out.Rel("p").Has(relation.Tuple{"a", "a"}) {
		t.Fatalf("want p(a, a) via equality chain, got %v", out)
	}
}
