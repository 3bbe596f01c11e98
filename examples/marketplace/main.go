// Interacting transducers (the paper's Section 5 future work): a supplier
// and a customer, each with their own business model, wired output-to-input
// with unit delay. The compatibility search looks for a joint error-free
// run that delivers the goods — and proves a deadlock when the two policies
// contradict (customer pays only after delivery, supplier delivers only
// after payment).
package main

import (
	"fmt"
	"log"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/verify"
)

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

const promptCustomerSrc = `
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

const stubbornCustomerSrc = `
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

func market(customerSrc string) *compose.Network {
	n := compose.New()
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"widget", "5"})
	must(n.AddNode("supplier", core.MustParseProgram(supplierSrc), db))
	must(n.AddNode("customer", core.MustParseProgram(customerSrc), nil))
	must(n.Connect("customer", "order", "supplier", "order"))
	must(n.Connect("customer", "pay", "supplier", "pay"))
	must(n.Connect("supplier", "invoice", "customer", "invoice"))
	must(n.Connect("supplier", "deliver", "customer", "arrived"))
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	goal, err := verify.ParseGoal("deliver(widget)")
	must(err)
	pool := []relation.Const{"widget"}

	fmt.Println("== prompt customer (pays on invoice) ==")
	n := market(promptCustomerSrc)
	res, err := n.Compatible([]compose.Goal{{Node: "supplier", G: goal}}, pool, 5)
	must(err)
	fmt.Printf("compatible: %v (explored %d candidate runs)\n", res.Compatible, res.Explored)
	if res.Compatible {
		run := n.Execute(res.Witness)
		for i := 0; i < run.Len(); i++ {
			fmt.Printf("  step %d: customer out %s | supplier out %s\n",
				i+1, run.Outputs[i]["customer"], run.Outputs[i]["supplier"])
		}
	}

	fmt.Println("\n== stubborn customer (pays only after delivery) ==")
	n2 := market(stubbornCustomerSrc)
	res2, err := n2.Compatible([]compose.Goal{{Node: "supplier", G: goal}}, pool, 5)
	must(err)
	fmt.Printf("compatible: %v (explored %d candidate runs) — the models deadlock\n",
		res2.Compatible, res2.Explored)
}
