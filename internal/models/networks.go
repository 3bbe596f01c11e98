package models

import (
	"fmt"
	"sort"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/relation"
)

// This file holds the network scenario generators: serializable
// compose.Spec descriptions of multi-transducer conversations (the paper's
// §5 interaction direction), plus canonical driving scripts for each. The
// session engine opens these as network sessions; the scenario fleet mixes
// them with the single-machine registry models.

// Resolve is the canonical compose.Resolver over this registry: a node spec
// naming a registry model gets a fresh machine plus its demo database. The
// session engine resolves through its own table instead, which shares one
// machine per model among its sessions.
func Resolve(name string) (*core.Machine, relation.Instance, error) {
	m := Get(name)
	if m == nil {
		return nil, nil, fmt.Errorf("models: unknown model %q", name)
	}
	return m, DefaultDB(name), nil
}

// NetSupplierSrc is the paper's Figure-1-style supplier adapted for network
// wiring: it invoices orders at the listed price, delivers once paid, and
// raises error on payments that match no prior order or listed price.
const NetSupplierSrc = `
transducer netsupplier
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

// NetCustomerSrc is the prompt customer: orders what it newly wants, pays
// every fresh invoice. The slip input models an out-of-band payment (no
// matching invoice) — the stimulus the fraud monitor watches for.
const NetCustomerSrc = `
transducer netcustomer
schema
  input: want/1, invoice/2, arrived/1, slip/2;
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
  pay(X,Y) :- slip(X,Y);
`

// NetShipperSrc forwards delivery requests one step later — the third hop
// of the marketplace pipeline.
const NetShipperSrc = `
transducer netshipper
schema
  input: request/1;
  state: past-request/1;
  output: shipped/1;
  log: shipped;
state rules
  past-request(X) +:- request(X);
output rules
  shipped(X) :- request(X);
`

// NetMonitorSrc is the fraud monitor: it taps the customer→supplier payment
// wire and the supplier→customer invoice wire, and raises alert on any
// payment not covered by a current or prior invoice.
const NetMonitorSrc = `
transducer netmonitor
schema
  input: payment/2, billed/2;
  state: past-billed/2;
  output: alert/2;
  log: alert;
state rules
  past-billed(X,Y) +:- billed(X,Y);
output rules
  alert(X,Y) :- payment(X,Y), NOT past-billed(X,Y), NOT billed(X,Y);
`

// NetClientSrc is the customization client: it requests a product with an
// option, accepts quotes, and waits for the configured item to be ready.
const NetClientSrc = `
transducer netclient
schema
  input: desire/2, quote/2, ready/1;
  state: past-desire/2, past-quote/2;
  output: request/2, accept/2;
  log: request, accept;
state rules
  past-desire(X,O) +:- desire(X,O);
  past-quote(X,Y) +:- quote(X,Y);
output rules
  request(X,O) :- desire(X,O), NOT past-desire(X,O);
  accept(X,Y) :- quote(X,Y), NOT past-quote(X,Y);
`

// NetConfiguratorSrc sits between client and vendor: it maps (product,
// option) requests to variant SKUs via its variant database, relays vendor
// invoices back as quotes, pays the vendor on accepted quotes, and reports
// delivered variants as ready products.
const NetConfiguratorSrc = `
transducer netconfigurator
schema
  database: variant/3;
  input: request/2, accept/2, invoice/2, delivered/1;
  state: past-invoice/2;
  output: order/1, pay/2, quote/2, ready/1;
  log: order, pay, quote;
state rules
  past-invoice(X,Y) +:- invoice(X,Y);
output rules
  order(V) :- request(X,O), variant(X,O,V);
  quote(X,Y) :- invoice(V,Y), variant(X,O,V);
  pay(V,Y) :- accept(X,Y), variant(X,O,V), past-invoice(V,Y);
  ready(X) :- delivered(V), variant(X,O,V);
`

// netProducts is the shared demo catalog the generated networks trade in.
var netProducts = []struct{ name, base, deluxe relation.Const }{
	{"widget", "5", "7"},
	{"gadget", "8", "10"},
	{"gizmo", "13", "15"},
}

// NetProducts lists the product names the generated networks' demo
// databases carry, in catalog order.
func NetProducts() []string {
	names := make([]string, len(netProducts))
	for i, p := range netProducts {
		names[i] = string(p.name)
	}
	return names
}

func netPriceDB() relation.Instance {
	db := relation.NewInstance()
	for _, p := range netProducts {
		db.Add("price", relation.Tuple{p.name, p.base})
	}
	return db
}

// MarketplaceNetwork generates the three-hop marketplace: customer ↔
// supplier for the order/invoice/pay conversation, with deliveries routed
// through a shipper back to the customer.
func MarketplaceNetwork() *compose.Spec {
	return &compose.Spec{
		Nodes: []compose.NodeSpec{
			{Name: "customer", Src: NetCustomerSrc},
			{Name: "supplier", Src: NetSupplierSrc, DB: netPriceDB()},
			{Name: "shipper", Src: NetShipperSrc},
		},
		Wires: []compose.WireSpec{
			{From: "customer", Output: "order", To: "supplier", Input: "order"},
			{From: "customer", Output: "pay", To: "supplier", Input: "pay"},
			{From: "supplier", Output: "invoice", To: "customer", Input: "invoice"},
			{From: "supplier", Output: "deliver", To: "shipper", Input: "request"},
			{From: "shipper", Output: "shipped", To: "customer", Input: "arrived"},
		},
	}
}

// FraudNetwork generates the monitored marketplace: the customer↔supplier
// pair with a monitor tapping both the payment and invoice wires. An
// out-of-band payment (the customer's slip input) raises an alert.
func FraudNetwork() *compose.Spec {
	return &compose.Spec{
		Nodes: []compose.NodeSpec{
			{Name: "customer", Src: NetCustomerSrc},
			{Name: "supplier", Src: NetSupplierSrc, DB: netPriceDB()},
			{Name: "monitor", Src: NetMonitorSrc},
		},
		Wires: []compose.WireSpec{
			{From: "customer", Output: "order", To: "supplier", Input: "order"},
			{From: "customer", Output: "pay", To: "supplier", Input: "pay"},
			{From: "customer", Output: "pay", To: "monitor", Input: "payment"},
			{From: "supplier", Output: "invoice", To: "customer", Input: "invoice"},
			{From: "supplier", Output: "invoice", To: "monitor", Input: "billed"},
			{From: "supplier", Output: "deliver", To: "customer", Input: "arrived"},
		},
	}
}

// CustomizationNetwork generates the brokered chain: a client requests a
// (product, option) pair, the configurator resolves it to a variant SKU and
// runs the order/invoice/pay conversation with the vendor on the client's
// behalf, and the configured product comes back as ready.
func CustomizationNetwork() *compose.Spec {
	variants := relation.NewInstance()
	prices := relation.NewInstance()
	for _, p := range netProducts {
		variants.Add("variant", relation.Tuple{p.name, "plain", p.name + "-basic"})
		variants.Add("variant", relation.Tuple{p.name, "gift", p.name + "-deluxe"})
		prices.Add("price", relation.Tuple{p.name + "-basic", p.base})
		prices.Add("price", relation.Tuple{p.name + "-deluxe", p.deluxe})
	}
	return &compose.Spec{
		Nodes: []compose.NodeSpec{
			{Name: "client", Src: NetClientSrc},
			{Name: "configurator", Src: NetConfiguratorSrc, DB: variants},
			{Name: "vendor", Src: NetSupplierSrc, DB: prices},
		},
		Wires: []compose.WireSpec{
			{From: "client", Output: "request", To: "configurator", Input: "request"},
			{From: "client", Output: "accept", To: "configurator", Input: "accept"},
			{From: "configurator", Output: "quote", To: "client", Input: "quote"},
			{From: "configurator", Output: "ready", To: "client", Input: "ready"},
			{From: "configurator", Output: "order", To: "vendor", Input: "order"},
			{From: "configurator", Output: "pay", To: "vendor", Input: "pay"},
			{From: "vendor", Output: "invoice", To: "configurator", Input: "invoice"},
			{From: "vendor", Output: "deliver", To: "configurator", Input: "delivered"},
		},
	}
}

// networks is the registry of generated network specs, mirroring the model
// registry: every generator appears here under a stable name.
var networks = map[string]func() *compose.Spec{
	"marketplace":   MarketplaceNetwork,
	"fraud":         FraudNetwork,
	"customization": CustomizationNetwork,
}

// NetworkNames returns the sorted names of the generated networks.
func NetworkNames() []string {
	names := make([]string, 0, len(networks))
	for n := range networks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Network returns a fresh spec for the named generated network, or nil if
// the name is not registered. Each call generates anew, so the returned
// spec (databases included) is not shared with any other caller.
func Network(name string) *compose.Spec {
	gen, ok := networks[name]
	if !ok {
		return nil
	}
	return gen()
}

// NetworkScript returns the canonical error-free driving script for the
// named network trading the given product: the external stimulus at step 1
// followed by enough empty steps for the conversation to run to completion
// under unit delay. Unknown networks return nil.
func NetworkScript(name, product string) []compose.StepInputs {
	stim := func(node, rel string, tup relation.Tuple) []compose.StepInputs {
		in := relation.NewInstance()
		in.Add(rel, tup)
		return []compose.StepInputs{{node: in}}
	}
	empty := func(n int) []compose.StepInputs {
		steps := make([]compose.StepInputs, n)
		for i := range steps {
			steps[i] = compose.StepInputs{}
		}
		return steps
	}
	item := relation.Const(product)
	switch name {
	case "marketplace":
		// want → order → invoice → pay → deliver → shipped → arrived.
		return append(stim("customer", "want", relation.Tuple{item}), empty(6)...)
	case "fraud":
		// Honest flow: the monitor sees billed before payment, no alert.
		return append(stim("customer", "want", relation.Tuple{item}), empty(5)...)
	case "customization":
		// desire → request → order → invoice → quote → accept → pay →
		// deliver → ready → client sees it.
		return append(stim("client", "desire", relation.Tuple{item, "gift"}), empty(8)...)
	}
	return nil
}
