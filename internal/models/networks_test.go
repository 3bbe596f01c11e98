package models

import (
	"testing"

	"repro/internal/compose"
	"repro/internal/relation"
)

func runNetwork(t *testing.T, name, product string) *compose.Run {
	t.Helper()
	spec := Network(name)
	if spec == nil {
		t.Fatalf("Network(%q) = nil", name)
	}
	n, err := spec.Build(Resolve)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	script := NetworkScript(name, product)
	if script == nil {
		t.Fatalf("NetworkScript(%q) = nil", name)
	}
	run := n.Execute(script)
	return run
}

func TestMarketplaceNetworkDelivers(t *testing.T) {
	for _, product := range NetProducts() {
		run := runNetwork(t, "marketplace", product)
		if !run.ErrorFree() {
			t.Fatalf("%s: marketplace flow raised error", product)
		}
		item := relation.Const(product)
		// deliver (step 4) routes through the shipper (step 5) to the
		// customer (step 6).
		if !run.Outputs[4]["shipper"].Has("shipped", relation.Tuple{item}) {
			t.Errorf("%s: no shipment at step 5: %s", product, run.Outputs[4]["shipper"])
		}
		if !run.Inputs[5]["customer"].Has("arrived", relation.Tuple{item}) {
			t.Errorf("%s: customer never saw arrival: %s", product, run.Inputs[5]["customer"])
		}
	}
}

func TestFraudNetworkHonestFlowQuiet(t *testing.T) {
	run := runNetwork(t, "fraud", "widget")
	if !run.ErrorFree() {
		t.Fatal("honest fraud-net flow raised error")
	}
	if !run.Outputs[3]["supplier"].Has("deliver", relation.Tuple{"widget"}) {
		t.Errorf("no delivery at step 4: %s", run.Outputs[3]["supplier"])
	}
	for i, out := range run.Outputs {
		if out["monitor"].Rel("alert").Len() != 0 {
			t.Errorf("step %d: spurious alert: %s", i+1, out["monitor"])
		}
	}
}

func TestFraudNetworkSlipAlerts(t *testing.T) {
	spec := Network("fraud")
	n, err := spec.Build(Resolve)
	if err != nil {
		t.Fatal(err)
	}
	slip := relation.NewInstance()
	slip.Add("slip", relation.Tuple{"widget", "5"})
	run := n.Execute([]compose.StepInputs{
		{"customer": slip}, {}, {},
	})
	// The out-of-band payment reaches the monitor one step later with no
	// covering invoice: alert. The supplier independently raises error
	// (payment with no prior order).
	if !run.Outputs[1]["monitor"].Has("alert", relation.Tuple{"widget", "5"}) {
		t.Errorf("no alert at step 2: %s", run.Outputs[1]["monitor"])
	}
	if run.ErrorFree() {
		t.Error("slip payment did not raise supplier error")
	}
}

func TestCustomizationNetworkReadies(t *testing.T) {
	run := runNetwork(t, "customization", "widget")
	if !run.ErrorFree() {
		t.Fatal("customization flow raised error")
	}
	if !run.Outputs[5]["configurator"].Has("pay", relation.Tuple{"widget-deluxe", "7"}) {
		t.Errorf("configurator never paid the vendor: %s", run.Outputs[5]["configurator"])
	}
	if !run.Outputs[7]["configurator"].Has("ready", relation.Tuple{"widget"}) {
		t.Errorf("no ready at step 8: %s", run.Outputs[7]["configurator"])
	}
}

func TestNetworkRegistry(t *testing.T) {
	names := NetworkNames()
	want := []string{"customization", "fraud", "marketplace"}
	if len(names) != len(want) {
		t.Fatalf("NetworkNames() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("NetworkNames() = %v, want %v", names, want)
		}
	}
	if Network("ghost") != nil {
		t.Error("unknown network resolved")
	}
	if NetworkScript("ghost", "widget") != nil {
		t.Error("unknown network has a script")
	}
	// Fresh specs do not alias: mutating one build's DB must not leak.
	a, b := Network("marketplace"), Network("marketplace")
	a.Nodes[1].DB.Add("price", relation.Tuple{"poison", "1"})
	if b.Nodes[1].DB.Has("price", relation.Tuple{"poison", "1"}) {
		t.Error("network specs share databases")
	}
}

func TestResolveRegistryModels(t *testing.T) {
	for _, name := range Names() {
		m, db, err := Resolve(name)
		if err != nil || m == nil {
			t.Errorf("Resolve(%q): %v", name, err)
		}
		if db == nil {
			t.Errorf("Resolve(%q): nil db", name)
		}
	}
	if _, _, err := Resolve("ghost"); err == nil {
		t.Error("Resolve accepted unknown model")
	}
	// A spec can name registry models directly.
	spec := &compose.Spec{Nodes: []compose.NodeSpec{{Name: "shop", Model: "short"}}}
	if _, err := spec.Build(Resolve); err != nil {
		t.Errorf("model-node spec failed to build: %v", err)
	}
}
