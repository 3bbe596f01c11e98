package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dlog"
	"repro/internal/ra"
	"repro/internal/relation"
)

// stepTree is Machine.Step on the tree-walking dlog evaluator: the oracle
// the compiled plans are checked against. State-rule heads are tagged so
// that bodies read the previous state (the plans get the same effect from
// no-shadow compilation); the NUL byte keeps the tag out of any parseable
// relation name.
func (m *Machine) stepTree(input, state, db relation.Instance) (relation.Instance, relation.Instance, error) {
	const nextPrefix = "\x00next-"
	edb := dlog.MultiDB{input, state, db}
	eval := dlog.Eval
	if m.kind == KindGeneral {
		eval = dlog.EvalStratified
	}
	output, err := eval(m.outputRules, edb)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range m.schema.Out {
		output.Ensure(d.Name, d.Arity)
	}
	prog := make(dlog.Program, len(m.stateRules))
	for i, r := range m.stateRules {
		r.Head = dlog.Atom{Pred: nextPrefix + r.Head.Pred, Args: r.Head.Args}
		prog[i] = r
	}
	tagged, err := dlog.Eval(prog, edb)
	if err != nil {
		return nil, nil, err
	}
	derived := relation.NewInstance()
	for name, rel := range tagged {
		derived[strings.TrimPrefix(name, nextPrefix)] = rel
	}
	return m.mergeState(derived, state), output, nil
}

// TestPlansAgreeWithTreeOracle steps the compiled plans and the tree oracle side by
// side: SHORT on the paper's session, and the flip-flop whose state rule
// negates its own head (temporal, not cyclic — the planner must lower it).
func TestPlansAgreeWithTreeOracle(t *testing.T) {
	const flipflopSrc = `
transducer flipflop
schema
  input: tick/0;
  state: on/0;
  output: lit/0;
  log: lit;
state rules
  on :- tick, NOT on;
output rules
  lit :- on;
`
	for _, tc := range []struct {
		name   string
		src    string
		db     relation.Instance
		inputs relation.Sequence
	}{
		{"short", shortSrc, magazineDB(), relation.Sequence{step("order(time)"), step("pay(time, 855)")}},
		{"flipflop", flipflopSrc, relation.NewInstance(), relation.Sequence{step("tick"), step("tick"), step(), step("tick")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustParseProgram(tc.src)
			raState, treeState := relation.NewInstance(), relation.NewInstance()
			for i, in := range tc.inputs {
				raNext, raOut, err := m.Step(in, raState, tc.db)
				if err != nil {
					t.Fatalf("step %d ra: %v", i+1, err)
				}
				treeNext, treeOut, err := m.stepTree(in, treeState, tc.db)
				if err != nil {
					t.Fatalf("step %d tree: %v", i+1, err)
				}
				if !raOut.Equal(treeOut) {
					t.Fatalf("step %d outputs differ\ntree: %v\nra:   %v", i+1, treeOut, raOut)
				}
				if !raNext.Equal(treeNext) {
					t.Fatalf("step %d states differ\ntree: %v\nra:   %v", i+1, treeNext, raNext)
				}
				raState, treeState = raNext, treeNext
			}
		})
	}
}

// TestUnloweredProgramIsAConstructionError: what the planner cannot lower
// never becomes a Machine, so Step has no second evaluator to fall back to.
func TestUnloweredProgramIsAConstructionError(t *testing.T) {
	schema := &Schema{
		In:    relation.Schema{{Name: "a", Arity: 1}},
		State: relation.Schema{{Name: "s", Arity: 1}},
		Out:   relation.Schema{{Name: "o", Arity: 1}},
	}
	x, y := dlog.V("X"), dlog.V("Y")
	// One head derived at two arities: safe and stratifiable, so only the
	// planner objects (the tree evaluator would panic mid-step).
	state := dlog.Program{
		{Head: dlog.NewAtom("s", x), Body: []dlog.Literal{dlog.Pos(dlog.NewAtom("a", x))}},
		{Head: dlog.NewAtom("s", x, y), Body: []dlog.Literal{dlog.Pos(dlog.NewAtom("a", x)), dlog.Pos(dlog.NewAtom("a", y))}},
	}
	m, err := NewGeneral(schema, state, nil)
	var cerr *ra.CompileError
	if m != nil || !errors.As(err, &cerr) {
		t.Fatalf("NewGeneral = %v, %v; want nil and a *ra.CompileError", m, err)
	}
}

func TestPlanCacheSharedAcrossMachines(t *testing.T) {
	p1 := MustParseProgram(shortSrc).plans
	p2 := MustParseProgram(shortSrc).SetName("renamed").plans
	if p1 != p2 {
		t.Fatal("two machines with the same rule programs got distinct plans")
	}
	if p1.output.Interner() != p1.state.Interner() {
		t.Fatal("output and state plans do not share the machine's intern table")
	}
}

// TestPlanCacheKeyedByInputNames: the input names steer the join order, so
// two machines with the same rule text and different input relations must
// not share a plan — each opens its join from its own input.
func TestPlanCacheKeyedByInputNames(t *testing.T) {
	x := dlog.V("X")
	rules := dlog.Program{{Head: dlog.NewAtom("o", x), Body: []dlog.Literal{dlog.Pos(dlog.NewAtom("a", x)), dlog.Pos(dlog.NewAtom("b", x))}}}
	build := func(in, db string) *Machine {
		m, err := NewGeneral(&Schema{
			In:  relation.Schema{{Name: in, Arity: 1}},
			DB:  relation.Schema{{Name: db, Arity: 1}},
			Out: relation.Schema{{Name: "o", Arity: 1}},
		}, nil, rules)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fromA, fromB := build("a", "b"), build("b", "a")
	if fromA.plans == fromB.plans {
		t.Fatal("machines with different input relations share a plan")
	}
	for in, m := range map[string]*Machine{"a": fromA, "b": fromB} {
		if got := m.ExplainPlan(); !strings.Contains(got, "scan "+in+"(→$0)") {
			t.Fatalf("the machine whose input is %s does not open from it:\n%s", in, got)
		}
	}
}

func TestExplainPlanRendersBothPrograms(t *testing.T) {
	m := MustParseProgram(shortSrc)
	got := m.ExplainPlan()
	for _, want := range []string{"output plan:", "state plan", "sendbill", "past-order", "scan"} {
		if !strings.Contains(got, want) {
			t.Fatalf("ExplainPlan missing %q:\n%s", want, got)
		}
	}
}
