package compose

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/verify"
)

// supplierSrc requires payment before delivery (the supplier's business
// model): pay must match a prior order at the listed price.
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

func buildMarket(t *testing.T, customerSrc string) *Network {
	t.Helper()
	n := New()
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"widget", "5"})
	if err := n.AddNode("supplier", core.MustParseProgram(supplierSrc), db); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("customer", core.MustParseProgram(customerSrc), nil); err != nil {
		t.Fatal(err)
	}
	for _, w := range []Wire{
		{"customer", "order", "supplier", "order"},
		{"customer", "pay", "supplier", "pay"},
		{"supplier", "invoice", "customer", "invoice"},
		{"supplier", "deliver", "customer", "arrived"},
	} {
		if err := n.Connect(w.From, w.Output, w.To, w.Input); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestConnectValidation(t *testing.T) {
	n := New()
	if err := n.AddNode("s", core.MustParseProgram(supplierSrc), nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("s", "deliver", "ghost", "x"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := n.Connect("s", "nope", "s", "order"); err == nil {
		t.Error("unknown output accepted")
	}
	if err := n.Connect("s", "invoice", "s", "order"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := n.AddNode("s", core.MustParseProgram(supplierSrc), nil); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestExternalInputs(t *testing.T) {
	n := buildMarket(t, promptCustomerFixed)
	ext := n.ExternalInputs()
	if len(ext["supplier"]) != 0 {
		t.Errorf("supplier externals = %v, want none (fully wired)", ext["supplier"])
	}
	if len(ext["customer"]) != 1 || ext["customer"][0].Name != "want" {
		t.Errorf("customer externals = %v, want [want]", ext["customer"])
	}
}

// promptCustomerFixed is promptCustomerSrc with a valid pay rule.
const promptCustomerFixed = `
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

// TestHappyFlow drives the prompt market by hand: want → order → invoice →
// pay → deliver, each hop one step later (unit delay).
func TestHappyFlow(t *testing.T) {
	n := buildMarket(t, promptCustomerFixed)
	want := relation.NewInstance()
	want.Add("want", relation.Tuple{"widget"})
	ext := []StepInputs{
		{"customer": want},
		{}, {}, {}, {},
	}
	run := n.Execute(ext)
	if !run.ErrorFree() {
		t.Fatal("happy flow raised error")
	}
	// Step 1: customer orders. Step 2: supplier invoices. Step 3: customer
	// pays. Step 4: supplier delivers.
	if run.Outputs[0]["customer"].Rel("order").Len() == 0 {
		t.Errorf("no order at step 1: %s", run.Outputs[0]["customer"])
	}
	if !run.Outputs[1]["supplier"].Has("invoice", relation.Tuple{"widget", "5"}) {
		t.Errorf("no invoice at step 2: %s", run.Outputs[1]["supplier"])
	}
	if !run.Outputs[2]["customer"].Has("pay", relation.Tuple{"widget", "5"}) {
		t.Errorf("no payment at step 3: %s", run.Outputs[2]["customer"])
	}
	if !run.Outputs[3]["supplier"].Has("deliver", relation.Tuple{"widget"}) {
		t.Errorf("no delivery at step 4: %s", run.Outputs[3]["supplier"])
	}
}

// TestCompatibilityPromptCustomer: the compatibility search finds the happy
// flow on its own (experiment E17).
func TestCompatibilityPromptCustomer(t *testing.T) {
	n := buildMarket(t, promptCustomerFixed)
	g, err := verify.ParseGoal("deliver(widget)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Compatible([]Goal{{Node: "supplier", G: g}}, []relation.Const{"widget"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible {
		t.Fatalf("prompt market incompatible after exploring %d runs", res.Explored)
	}
	// The witness replays.
	run := n.Execute(res.Witness)
	if !run.ErrorFree() || !g.Holds(run.Outputs[run.Len()-1]["supplier"]) {
		t.Error("witness does not achieve the goal")
	}
}

// TestIncompatibilityStubbornCustomer: a customer who pays only after
// delivery cannot trade with a supplier who delivers only after payment —
// within the search bounds no error-free run delivers (the deadlock the
// paper's introduction describes).
func TestIncompatibilityStubbornCustomer(t *testing.T) {
	n := buildMarket(t, stubbornCustomerFixed)
	g, err := verify.ParseGoal("deliver(widget)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Compatible([]Goal{{Node: "supplier", G: g}}, []relation.Const{"widget"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compatible {
		t.Fatalf("stubborn market compatible via %v", res.Witness)
	}
	if res.Explored == 0 {
		t.Error("search explored nothing")
	}
}

// TestExecuteResetsState: consecutive executions start from fresh states,
// so the same stimulus yields the same run.
func TestExecuteResetsState(t *testing.T) {
	n := buildMarket(t, promptCustomerFixed)
	want := relation.NewInstance()
	want.Add("want", relation.Tuple{"widget"})
	ext := []StepInputs{{"customer": want}, {}, {}, {}, {}}
	r1 := n.Execute(ext)
	r2 := n.Execute(ext)
	for i := range r1.Outputs {
		for _, node := range n.Nodes() {
			if !r1.Outputs[i][node].Equal(r2.Outputs[i][node]) {
				t.Fatalf("step %d node %s differs between executions", i+1, node)
			}
		}
	}
}

// TestRunRecordsConsumedInputs: the run trace shows wired inputs merged
// with external stimulus.
func TestRunRecordsConsumedInputs(t *testing.T) {
	n := buildMarket(t, promptCustomerFixed)
	want := relation.NewInstance()
	want.Add("want", relation.Tuple{"widget"})
	run := n.Execute([]StepInputs{{"customer": want}, {}, {}})
	// Step 2: the supplier consumed the customer's wired order.
	if !run.Inputs[1]["supplier"].Has("order", relation.Tuple{"widget"}) {
		t.Errorf("wired order not recorded: %s", run.Inputs[1]["supplier"])
	}
	// Step 3: the customer consumed the supplier's wired invoice.
	if !run.Inputs[2]["customer"].Has("invoice", relation.Tuple{"widget", "5"}) {
		t.Errorf("wired invoice not recorded: %s", run.Inputs[2]["customer"])
	}
}

// stubbornCustomerFixed pays only once goods arrived (and keeps paying only
// the invoiced amount).
const stubbornCustomerFixed = `
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
