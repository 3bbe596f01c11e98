package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/tsdi"
	"repro/internal/turing"
	"repro/internal/verify"
)

// Fig1Holds is E1's verdict on a run of SHORT on Figure 1's inputs: bills
// precede payments, and deliveries follow payments exactly.
func Fig1Holds(run *core.Run) bool {
	o := run.Outputs
	return o[0].Has("sendbill", relation.Tuple{"time", "855"}) &&
		o[1].Has("deliver", relation.Tuple{"time"}) &&
		o[2].Has("deliver", relation.Tuple{"newsweek"}) &&
		o[2].Has("deliver", relation.Tuple{"le-monde"})
}

// Fig2Holds is E2's verdict on a run of FRIENDLY on Figure 2's inputs: all
// four warning behaviours appear.
func Fig2Holds(run *core.Run) bool {
	o := run.Outputs
	return o[0].Has("unavailable", relation.Tuple{"la-stampa"}) &&
		o[1].Has("rejectpay", relation.Tuple{"le-monde"}) &&
		o[2].Has("alreadypaid", relation.Tuple{"time"}) &&
		o[3].Has("rebill", relation.Tuple{"newsweek", "845"})
}

// OrderPay is the alternating order/pay script over the magazine database:
// even steps order magazine (from+i) mod 3, odd steps pay the previous
// step's order at its listed price.
func OrderPay(from, n int) relation.Sequence {
	mags := []string{"time", "newsweek", "le-monde"}
	prices := map[string]string{"time": "855", "newsweek": "845", "le-monde": "8350"}
	var inputs relation.Sequence
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			inputs = append(inputs, models.Step(models.F("order", mags[(from+i)%3])))
		} else {
			prev := mags[(from+i-1)%3]
			inputs = append(inputs, models.Step(models.F("pay", prev, prices[prev])))
		}
	}
	return inputs
}

// Echo is the arity-k transducer of E4: it outputs and logs its input, and
// no database relation guards the input.
func Echo(k int) *core.Machine {
	vars := make([]string, k)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i+1)
	}
	vs := strings.Join(vars, ",")
	return core.MustParseProgram(fmt.Sprintf(`
transducer echo%d
schema
  input: in/%d;
  output: out/%d;
  log: out;
state rules
  past-in(%s) +:- in(%s);
output rules
  out(%s) :- in(%s);
`, k, k, k, vs, vs, vs, vs))
}

// EchoLog is the one-step log out(c0, …, c(k-1)) of Echo(k).
func EchoLog(k int) relation.Sequence {
	tup := make(relation.Tuple, k)
	for i := range tup {
		tup[i] = relation.Const(fmt.Sprintf("c%d", i))
	}
	step := relation.NewInstance()
	step.Add("out", tup)
	return relation.Sequence{step}
}

// DepPair asks whether the dependencies F imply G, the question the
// Proposition 3.1 and Theorem 3.4 reductions encode.
type DepPair struct{ F, G deps.Set }

// NotImpliedPair is the paper's example: F = {1→2} does not imply
// G = {R[1] ⊆ R[2]}.
func NotImpliedPair() DepPair {
	return DepPair{deps.Set{Arity: 2, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}}},
		deps.Set{Arity: 2, IncDs: []deps.IncD{{Lhs: []int{1}, Rhs: []int{2}}}}}
}

// ImpliedPair is a known implication: F = {1→2, 2→3} implies G = {1→3}.
func ImpliedPair() DepPair {
	return DepPair{deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 2}, {Lhs: []int{2}, Rhs: 3}}},
		deps.Set{Arity: 3, FDs: []deps.FD{{Lhs: []int{1}, Rhs: 3}}}}
}

// Implies runs the bounded chase; on NotImplied the relation is a
// counterexample satisfying F and violating G.
func (p DepPair) Implies() (deps.Answer, *relation.Rel) { return deps.Implies(p.F, p.G, 1000) }

// ViolGInputs is the Proposition 3.1 session that offers witness as r and
// then waits one step for violg.
func (p DepPair) ViolGInputs(witness *relation.Rel) relation.Sequence {
	step1 := relation.NewInstance()
	step1.Ensure("r", p.F.Arity).UnionWith(witness)
	return relation.Sequence{step1, relation.NewInstance()}
}

// ReachGoals are E6's goals on SHORT over the magazine database, with the
// verdicts Theorem 3.2 predicts: reachable exactly when the product is
// priced.
var ReachGoals = []struct {
	Goal      string
	Reachable bool
}{
	{"deliver(le-monde)", true},
	{"deliver(atlantis)", false},
}

// PaymentProperty is the paper's «no product is delivered before it is
// paid» (E7).
const PaymentProperty = "deliver(X), price(X,Y) => past-pay(X,Y)"

// FullLog is m with order, pay, sendbill and deliver logged, meeting
// Theorem 3.5's precondition that the reference's inputs are logged (E8).
func FullLog(m *core.Machine) *core.Machine {
	return models.WithLog(m, "order", "pay", "sendbill", "deliver")
}

// EnforceCancelPolicy is E10: it compiles Section 4.1's three example
// T_sdi sentences into error rules of SHORT-with-cancel and runs the
// result on CancelSessions seeded random sessions. agree counts the sessions that are
// error-free exactly when they satisfy the sentences, satisfied those that
// satisfy them.
func EnforceCancelPolicy() (enf *core.Machine, agree, satisfied int, err error) {
	m := core.MustParseProgram(`
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
`)
	s := tsdi.MustParse(
		"past-order(X), price(X,Y), NOT past-pay(X,Y) => pay(X,Y), cancel(X)",
		"pay(X,Y) => price(X,Y), past-order(X)",
		"cancel(X) => past-order(X)",
	)
	if enf, err = tsdi.Enforce(m, s); err != nil {
		return nil, 0, 0, err
	}
	db := models.MagazineDB()
	rnd := rand.New(rand.NewSource(1))
	mags := []string{"time", "newsweek", "le-monde"}
	prices := []string{"855", "845", "8350"}
	for i := 0; i < CancelSessions; i++ {
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
		if err != nil {
			return nil, 0, 0, err
		}
		ok, err := s.SatisfiedBy(m, &core.Run{DB: db, Inputs: seq})
		if err != nil {
			return nil, 0, 0, err
		}
		if run.Valid(core.ErrorFree) == ok {
			agree++
		}
		if ok {
			satisfied++
		}
	}
	return enf, agree, satisfied, nil
}

// CancelSessions is how many random sessions E10 cross-checks.
const CancelSessions = 500

// TuringCase is one of E11's machines with the tape length its language
// is enumerated on.
type TuringCase struct {
	Name string
	M    *turing.Machine
	Tape int
}

// TuringCases are E11's machines: a nondeterministic one with language
// {a, b} and a deterministic writer of "ab".
func TuringCases() []TuringCase {
	return []TuringCase{
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
}

// PricedPayment is the T_sdi sentence «every payment is at a listed
// price», which STRICT enforces by an error rule (E12).
const PricedPayment = "pay(X,Y) => price(X,Y)"

// PromptCustomer orders what it newly wants and pays every fresh invoice
// (E17).
func PromptCustomer() *core.Machine {
	return core.MustParseProgram(`
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
`)
}

// StubbornCustomer pays an invoice only once the goods have arrived, so
// against a supplier that delivers after payment it deadlocks (E17).
func StubbornCustomer() *core.Machine {
	return core.MustParseProgram(`
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
`)
}

// Trade wires customer to the network supplier — it invoices orders at
// the listed price, delivers once paid, and raises error on a payment that
// matches no order or price — and searches joint runs of up to five steps
// over the one product for a delivery (E17).
func Trade(customer *core.Machine) (*compose.CompatibleResult, error) {
	goal, err := verify.ParseGoal("deliver(widget)")
	if err != nil {
		return nil, err
	}
	n := compose.New()
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"widget", "5"})
	if err := n.AddNode("supplier", core.MustParseProgram(models.NetSupplierSrc), db); err != nil {
		return nil, err
	}
	if err := n.AddNode("customer", customer, nil); err != nil {
		return nil, err
	}
	for _, w := range [][4]string{
		{"customer", "order", "supplier", "order"},
		{"customer", "pay", "supplier", "pay"},
		{"supplier", "invoice", "customer", "invoice"},
		{"supplier", "deliver", "customer", "arrived"},
	} {
		if err := n.Connect(w[0], w[1], w[2], w[3]); err != nil {
			return nil, err
		}
	}
	return n.Compatible([]compose.Goal{{Node: "supplier", G: goal}}, []relation.Const{"widget"}, 5)
}

// Pigeonhole is the unsatisfiable CNF putting n+1 pigeons into n holes
// (S1).
func Pigeonhole(n int) *sat.Solver {
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

// Catalogue is S2's synthetic catalogue of n available products p<i>
// priced 100+i, with the session that orders and then pays for each in
// turn.
func Catalogue(n int) (relation.Instance, relation.Sequence) {
	db := relation.NewInstance()
	var seq relation.Sequence
	for i := 0; i < n; i++ {
		p, price := fmt.Sprintf("p%d", i), fmt.Sprintf("%d", 100+i)
		db.Add("price", relation.Tuple{relation.Const(p), relation.Const(price)})
		db.Add("available", relation.Tuple{relation.Const(p)})
		seq = append(seq, models.Step(models.F("order", p)), models.Step(models.F("pay", p, price)))
	}
	return db, seq
}
