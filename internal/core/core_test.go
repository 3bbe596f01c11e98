package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dlog"
	"repro/internal/relation"
)

const shortSrc = `
transducer short
schema
  database: price/2, available/1;
  input: order/1, pay/2;
  state: past-order/1, past-pay/2;
  output: sendbill/2, deliver/1;
  log: sendbill, pay, deliver;
state rules
  past-order(X) +:- order(X);
  past-pay(X,Y) +:- pay(X,Y);
output rules
  sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y);
  deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y);
`

func magazineDB() relation.Instance {
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"time", "855"})
	db.Add("price", relation.Tuple{"newsweek", "845"})
	db.Add("price", relation.Tuple{"le-monde", "8350"})
	db.Add("available", relation.Tuple{"time"})
	db.Add("available", relation.Tuple{"newsweek"})
	db.Add("available", relation.Tuple{"le-monde"})
	return db
}

func step(facts ...string) relation.Instance {
	in := relation.NewInstance()
	for _, f := range facts {
		name := f
		var args relation.Tuple
		if i := strings.IndexByte(f, '('); i >= 0 {
			name = f[:i]
			for _, part := range strings.Split(strings.TrimSuffix(f[i+1:], ")"), ",") {
				args = append(args, relation.Const(strings.TrimSpace(part)))
			}
		}
		in.Add(name, args)
	}
	return in
}

func TestParseShortIsSpocus(t *testing.T) {
	m := MustParseProgram(shortSrc)
	if m.Kind() != KindSpocus {
		t.Fatalf("kind = %v, want spocus", m.Kind())
	}
	if m.Name() != "short" {
		t.Errorf("name = %q", m.Name())
	}
	if got := len(m.Schema().In); got != 2 {
		t.Errorf("inputs = %d, want 2", got)
	}
	if m.Schema().FullLog() {
		t.Error("short has a partial log, not full")
	}
	if a, ok := m.Schema().Arity("past-pay"); !ok || a != 2 {
		t.Errorf("past-pay arity = %d,%v", a, ok)
	}
}

func TestShortRunMatchesPaperSemantics(t *testing.T) {
	m := MustParseProgram(shortSrc)
	run, err := m.Execute(magazineDB(), relation.Sequence{
		step("order(time)", "order(newsweek)"),
		step("pay(time,855)"),
		step("pay(newsweek,845)", "pay(newsweek,845)"),
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// Step 1: bills for both ordered magazines, nothing delivered.
	o1 := run.Outputs[0]
	if !o1.Has("sendbill", relation.Tuple{"time", "855"}) || !o1.Has("sendbill", relation.Tuple{"newsweek", "845"}) {
		t.Errorf("step1 bills wrong: %s", o1)
	}
	if o1.Rel("deliver").Len() != 0 {
		t.Errorf("step1 delivered too early: %s", o1)
	}
	// Step 2: payment for time delivers time (past-order holds, past-pay not yet).
	o2 := run.Outputs[1]
	if !o2.Has("deliver", relation.Tuple{"time"}) {
		t.Errorf("step2 should deliver time: %s", o2)
	}
	// Step 3: newsweek delivered.
	if !run.Outputs[2].Has("deliver", relation.Tuple{"newsweek"}) {
		t.Errorf("step3 should deliver newsweek: %s", run.Outputs[2])
	}
	// State cumulates.
	if !run.States[2].Has("past-pay", relation.Tuple{"time", "855"}) {
		t.Errorf("state lost past payment: %s", run.States[2])
	}
	// Log contains only logged relations.
	if run.Logs[1].Rel("order") != nil {
		t.Error("unlogged input leaked into log")
	}
	if !run.Logs[1].Has("pay", relation.Tuple{"time", "855"}) || !run.Logs[1].Has("deliver", relation.Tuple{"time"}) {
		t.Errorf("log step2 wrong: %s", run.Logs[1])
	}
}

func TestOutputSeesPreviousState(t *testing.T) {
	// Paying in the same step as ordering must NOT deliver: deliver needs
	// past-order, which only reflects earlier steps.
	m := MustParseProgram(shortSrc)
	run, err := m.Execute(magazineDB(), relation.Sequence{
		step("order(time)", "pay(time,855)"),
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if run.Outputs[0].Rel("deliver").Len() != 0 {
		t.Errorf("delivery must not happen in the ordering step: %s", run.Outputs[0])
	}
}

func TestRepaymentDoesNotRedeliver(t *testing.T) {
	m := MustParseProgram(shortSrc)
	run, err := m.Execute(magazineDB(), relation.Sequence{
		step("order(time)"),
		step("pay(time,855)"),
		step("pay(time,855)"), // duplicate payment
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if run.Outputs[2].Rel("deliver").Len() != 0 {
		t.Errorf("past-pay must suppress redelivery: %s", run.Outputs[2])
	}
}

func TestSchemaValidate(t *testing.T) {
	s := &Schema{
		In:  relation.Schema{{Name: "a", Arity: 1}},
		Out: relation.Schema{{Name: "a", Arity: 1}},
	}
	if err := s.Validate(); err == nil {
		t.Error("overlapping in/out accepted")
	}
	s2 := &Schema{
		In:  relation.Schema{{Name: "a", Arity: 1}},
		Out: relation.Schema{{Name: "b", Arity: 1}},
		Log: []string{"c"},
	}
	if err := s2.Validate(); err == nil {
		t.Error("log over undeclared relation accepted")
	}
	s3 := &Schema{
		In:  relation.Schema{{Name: "a", Arity: 1}, {Name: "a", Arity: 2}},
		Out: relation.Schema{{Name: "b", Arity: 1}},
	}
	if err := s3.Validate(); err == nil {
		t.Error("duplicate input declaration accepted")
	}
}

func TestNewSpocusRejectsBadPrograms(t *testing.T) {
	schema := &Schema{
		In:  relation.Schema{{Name: "r", Arity: 1}},
		Out: relation.Schema{{Name: "o", Arity: 1}},
		Log: []string{"o"},
	}
	cases := []struct {
		name  string
		rules string
	}{
		{"output in body", "o(X) :- r(X); o(X) :- o(X);"},
		{"unsafe", "o(X) :- NOT r(X);"},
		{"undeclared head", "bad(X) :- r(X);"},
		{"cumulative output", "o(X) +:- r(X);"},
		{"head arity", "o(X,Y) :- r(X), r(Y);"},
		{"body arity", "o(X) :- r(X,X);"},
	}
	for _, c := range cases {
		rules, err := dlog.ParseProgram(c.rules)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if _, err := NewSpocus(schema, rules); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestNewSpocusRejectsWrongStateSchema(t *testing.T) {
	schema := &Schema{
		In:    relation.Schema{{Name: "r", Arity: 1}},
		State: relation.Schema{{Name: "mystate", Arity: 1}},
		Out:   relation.Schema{{Name: "o", Arity: 1}},
	}
	if _, err := NewSpocus(schema, nil); err == nil {
		t.Error("non past-R state schema accepted by NewSpocus")
	}
}

func TestExtendedProjectionStateRules(t *testing.T) {
	// The Prop 3.1 extension: R2(Y) +:- R(X,Y) stores a projection.
	src := `
transducer projdemo
schema
  input: r/2;
  state: past-r/2, r2/1;
  output: violg;
  log: violg;
state rules
  past-r(X,Y) +:- r(X,Y);
  r2(Y) +:- r(X,Y);
output rules
  violg :- past-r(X,Y), NOT r2(X);
`
	m := MustParseProgram(src)
	if m.Kind() != KindExtended {
		t.Fatalf("kind = %v, want extended", m.Kind())
	}
	run, err := m.Execute(relation.NewInstance(), relation.Sequence{
		step("r(a,b)"),
		step(),
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// After step 1, past-r={(a,b)}, r2={b}; step 2 sees NOT r2(a) → violg.
	if run.Outputs[0].Rel("violg").Len() != 0 {
		t.Error("violg derived too early (state is previous-step)")
	}
	if run.Outputs[1].Rel("violg").Len() == 0 {
		t.Errorf("violg not derived: %s", run.Outputs[1])
	}
}

func TestGeneralMachineNonCumulativeState(t *testing.T) {
	src := `
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
	m := MustParseProgram(src)
	if m.Kind() != KindGeneral {
		t.Fatalf("kind = %v, want general", m.Kind())
	}
	run, err := m.Execute(relation.NewInstance(), relation.Sequence{
		step("tick"), step("tick"), step("tick"),
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// State alternates: off→on→off→on; output lit reflects previous state
	// being off (so lit at steps 2 is off... check actual values).
	wantOn := []bool{true, false, true}
	for i, w := range wantOn {
		got := run.States[i].Rel("on").Len() > 0
		if got != w {
			t.Errorf("step %d: on=%v, want %v", i+1, got, w)
		}
	}
}

// TestExecuteRejectsBadInputs pins Execute's messages for an unknown input
// relation and a wrong arity; sessions reuse them through
// Schema.CheckInput.
func TestExecuteRejectsBadInputs(t *testing.T) {
	m := MustParseProgram(shortSrc)
	for src, want := range map[string]string{
		"deliver(x)":    "step 2: deliver is not an input relation",
		"order(time,1)": "step 2: input order has arity 2, schema says 1",
	} {
		_, err := m.Execute(magazineDB(), relation.Sequence{step("order(time)"), step(src)})
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", src, err, want)
		}
	}
}

func TestAcceptModes(t *testing.T) {
	src := `
transducer acc
schema
  input: a/0, b/0;
  output: error/0, ok/0, accept/0;
  log: error, ok, accept;
state rules
  past-a +:- a;
  past-b +:- b;
output rules
  error :- b, NOT past-a;
  ok :- a;
  ok :- past-a;
  accept :- b;
`
	m := MustParseProgram(src)
	if m.Kind() != KindSpocus {
		t.Fatalf("kind = %v", m.Kind())
	}
	good, err := m.Execute(relation.NewInstance(), relation.Sequence{step("a"), step("b")})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !good.Valid(ErrorFree) || !good.Valid(OKEveryStep) || !good.Valid(AcceptAtEnd) || !good.Valid(AcceptAll) {
		t.Errorf("good run rejected: ef=%v ok=%v acc=%v", good.Valid(ErrorFree), good.Valid(OKEveryStep), good.Valid(AcceptAtEnd))
	}
	bad, err := m.Execute(relation.NewInstance(), relation.Sequence{step("b")})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if bad.Valid(ErrorFree) {
		t.Error("b before a should raise error")
	}
	if bad.Valid(OKEveryStep) {
		t.Error("ok missing at step 1")
	}
	if !bad.Valid(AcceptAtEnd) {
		t.Error("accept fires on b regardless")
	}
	if bad.ErrorFreePrefix() != 0 {
		t.Errorf("ErrorFreePrefix = %d, want 0", bad.ErrorFreePrefix())
	}
}

func TestMachineStringRoundTrip(t *testing.T) {
	m := MustParseProgram(shortSrc)
	m2, err := ParseProgram(m.String())
	if err != nil {
		t.Fatalf("reparse: %v\nprogram:\n%s", err, m.String())
	}
	if m2.Kind() != m.Kind() {
		t.Errorf("kind changed: %v vs %v", m2.Kind(), m.Kind())
	}
	if m2.String() != m.String() {
		t.Errorf("string not stable:\n%s\nvs\n%s", m.String(), m2.String())
	}
}

func TestArityInference(t *testing.T) {
	src := `
transducer infer
schema
  input: order, pay;
  output: deliver;
  log: deliver;
state rules
  past-order(X) +:- order(X);
  past-pay(X,Y) +:- pay(X,Y);
output rules
  deliver(X) :- past-order(X), pay(X,Y);
`
	m := MustParseProgram(src)
	if a, _ := m.Schema().In.Arity("pay"); a != 2 {
		t.Errorf("pay arity inferred as %d, want 2", a)
	}
	if a, _ := m.Schema().In.Arity("order"); a != 1 {
		t.Errorf("order arity inferred as %d, want 1", a)
	}
}

func TestArityConflictRejected(t *testing.T) {
	src := `
transducer conflict
schema
  input: r/1;
  output: o/1;
  log: o;
state rules
  past-r(X) +:- r(X);
output rules
  o(X) :- r(X, Y);
`
	if _, err := ParseProgram(src); err == nil {
		t.Error("arity conflict accepted")
	}
}

func TestParseProgramErrors(t *testing.T) {
	cases := []string{
		"transducer", // missing name
		"transducer t\nschema\n input: r/x;",
		"transducer t\nschema\n input r/1;",  // missing colon
		"transducer t\nstate rules\np(X) :-", // dangling
		"transducer t\nschema\ninput: r/1, r/2;",
		"transducer t\nschema\nlog: ghost;\noutput rules\n",
	}
	for _, src := range cases {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", src)
		}
	}
}

// TestPropStateCumulative checks Sᵢ ⊆ Sᵢ₊₁ on random input sequences of the
// short transducer — the inflationary-state property underpinning the
// paper's propositional characterization (§3.1).
func TestPropStateCumulative(t *testing.T) {
	m := MustParseProgram(shortSrc)
	db := magazineDB()
	mags := []string{"time", "newsweek", "le-monde"}
	prices := []string{"855", "845", "8350"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var seq relation.Sequence
		n := 1 + r.Intn(5)
		for i := 0; i < n; i++ {
			in := relation.NewInstance()
			for k := 0; k < r.Intn(3); k++ {
				if r.Intn(2) == 0 {
					in.Add("order", relation.Tuple{relation.Const(mags[r.Intn(3)])})
				} else {
					j := r.Intn(3)
					in.Add("pay", relation.Tuple{relation.Const(mags[j]), relation.Const(prices[r.Intn(3)])})
				}
			}
			seq = append(seq, in)
		}
		run, err := m.Execute(db, seq)
		if err != nil {
			return false
		}
		for i := 0; i+1 < len(run.States); i++ {
			if !run.States[i].SubsetOf(run.States[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropOutputLocality checks the key lemma of Theorem 3.2: the last
// output of a run on I₁..Iₙ equals the last output on the two-step sequence
// (∪_{i<n} Iᵢ), Iₙ.
func TestPropOutputLocality(t *testing.T) {
	m := MustParseProgram(shortSrc)
	db := magazineDB()
	mags := []string{"time", "newsweek", "le-monde"}
	prices := []string{"855", "845", "8350"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var seq relation.Sequence
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			in := relation.NewInstance()
			for k := 0; k < r.Intn(3); k++ {
				if r.Intn(2) == 0 {
					in.Add("order", relation.Tuple{relation.Const(mags[r.Intn(3)])})
				} else {
					in.Add("pay", relation.Tuple{relation.Const(mags[r.Intn(3)]), relation.Const(prices[r.Intn(3)])})
				}
			}
			seq = append(seq, in)
		}
		full, err := m.Execute(db, seq)
		if err != nil {
			return false
		}
		union := relation.NewInstance()
		for i := 0; i+1 < len(seq); i++ {
			union.UnionWith(seq[i])
		}
		short, err := m.Execute(db, relation.Sequence{union, seq[n-1]})
		if err != nil {
			return false
		}
		return full.LastOutput().Equal(short.LastOutput())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
