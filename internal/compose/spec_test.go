package compose

import (
	"encoding/json"
	"testing"

	"repro/internal/relation"
)

// marketSpec is buildMarket as a Spec: the supplier/prompt-customer pair
// wired into the Fig.1-style conversation.
func marketSpec() *Spec {
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"widget", "5"})
	return &Spec{
		Nodes: []NodeSpec{
			{Name: "supplier", Src: supplierSrc, DB: db},
			{Name: "customer", Src: promptCustomerFixed},
		},
		Wires: []WireSpec{
			{From: "customer", Output: "order", To: "supplier", Input: "order"},
			{From: "customer", Output: "pay", To: "supplier", Input: "pay"},
			{From: "supplier", Output: "invoice", To: "customer", Input: "invoice"},
			{From: "supplier", Output: "deliver", To: "customer", Input: "arrived"},
		},
	}
}

func wantWidget() StepInputs {
	in := relation.NewInstance()
	in.Add("want", relation.Tuple{"widget"})
	return StepInputs{"customer": in}
}

func TestSpecBuildAndRoundTrip(t *testing.T) {
	spec := marketSpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, n, err := ParseSpec(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec2.Nodes) != 2 || len(spec2.Wires) != 4 {
		t.Fatalf("round-tripped spec: %+v", spec2)
	}
	run, err := n.Execute([]StepInputs{wantWidget(), {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Outputs[3]["supplier"].Has("deliver", relation.Tuple{"widget"}) {
		t.Errorf("spec-built network does not deliver: %s", run.Outputs[3]["supplier"])
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"unnamed node", func(s *Spec) { s.Nodes[0].Name = "" }},
		{"duplicate node", func(s *Spec) { s.Nodes[1].Name = s.Nodes[0].Name }},
		{"model and src", func(s *Spec) { s.Nodes[0].Model = "short" }},
		{"neither model nor src", func(s *Spec) { s.Nodes[0].Src = "" }},
		{"bad program", func(s *Spec) { s.Nodes[0].Src = "transducer broken\nschema" }},
		{"unknown wire node", func(s *Spec) { s.Wires[0].From = "ghost" }},
		{"unknown output", func(s *Spec) { s.Wires[0].Output = "nope" }},
		{"unknown input", func(s *Spec) { s.Wires[0].Input = "nope" }},
		{"arity mismatch", func(s *Spec) { s.Wires[0].Input = "pay" }},
		{"unresolved model", func(s *Spec) { s.Nodes[0].Src = ""; s.Nodes[0].Model = "short" }},
	}
	for _, tc := range cases {
		spec := marketSpec()
		tc.mut(spec)
		if _, err := spec.Build(nil); err == nil {
			t.Errorf("%s: Build accepted invalid spec", tc.name)
		}
	}
}

func TestSpecSelfWireIsLegal(t *testing.T) {
	// A self-loop is well-defined under unit delay: the node reads its own
	// previous-step output.
	spec := marketSpec()
	spec.Wires = append(spec.Wires, WireSpec{From: "customer", Output: "order", To: "customer", Input: "want"})
	n, err := spec.Build(nil)
	if err != nil {
		t.Fatalf("self-wire rejected: %v", err)
	}
	if _, err := n.Execute([]StepInputs{wantWidget(), {}, {}}); err != nil {
		t.Fatal(err)
	}
}

// TestStepOnceMatchesExecute: stepping one at a time is the same run as
// Execute, the JointStep records consumed/wire traffic consistently, and
// every node's resident stepper computes what core.Machine.Step — the
// value-semantic reference — computes from the inputs the node consumed.
func TestStepOnceMatchesExecute(t *testing.T) {
	spec := marketSpec()
	n1, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ext := []StepInputs{wantWidget(), {}, {}, {}}
	run, err := n1.Execute(ext)
	if err != nil {
		t.Fatal(err)
	}
	n2.Start()
	refState := map[string]relation.Instance{}
	for i := range ext {
		js, err := n2.StepOnce(ext[i])
		if err != nil {
			t.Fatal(err)
		}
		if js.Seq != i+1 {
			t.Fatalf("step %d: seq %d", i+1, js.Seq)
		}
		exported := n2.ExportState().States
		for _, node := range n2.Nodes() {
			prev := refState[node]
			if prev == nil {
				prev = relation.NewInstance()
			}
			next, out, err := n2.Node(node).M.Step(js.Consumed[node], prev, n2.Node(node).DB)
			if err != nil {
				t.Fatal(err)
			}
			refState[node] = next
			if !js.Outputs[node].Equal(out) || !exported[node].Equal(next) {
				t.Errorf("step %d node %s: joint step differs from Machine.Step\noutput %s, want %s\nstate  %s, want %s",
					i+1, node, js.Outputs[node], out, exported[node], next)
			}
			if !js.Outputs[node].Equal(run.Outputs[i][node]) {
				t.Errorf("step %d node %s: StepOnce output %s, Execute %s", i+1, node, js.Outputs[node], run.Outputs[i][node])
			}
			if !js.Consumed[node].Equal(run.Inputs[i][node]) {
				t.Errorf("step %d node %s: consumed differs", i+1, node)
			}
		}
		// Every wire delta must be reflected in the destination's consumed
		// input relation.
		for _, wd := range js.Wire {
			for _, tup := range wd.Facts {
				if !js.Consumed[wd.To].Has(wd.Input, tup) {
					t.Errorf("step %d: wire fact %s%s not consumed by %s", i+1, wd.Input, tup, wd.To)
				}
			}
		}
	}
}

// TestExportRestoreState: a run split across an export/restore boundary is
// identical to an uninterrupted one.
func TestExportRestoreState(t *testing.T) {
	spec := marketSpec()
	whole, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	split, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ext := []StepInputs{wantWidget(), {}, {}, {}}
	ref, err := whole.Execute(ext)
	if err != nil {
		t.Fatal(err)
	}

	split.Start()
	for _, e := range ext[:2] {
		if _, err := split.StepOnce(e); err != nil {
			t.Fatal(err)
		}
	}
	st := split.ExportState()
	if st.Steps != 2 {
		t.Fatalf("exported %d steps, want 2", st.Steps)
	}
	// Round-trip through JSON, the way a snapshot would.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 NetState
	if err := json.Unmarshal(data, &st2); err != nil {
		t.Fatal(err)
	}
	resumed, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(&st2); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(ext); i++ {
		js, err := resumed.StepOnce(ext[i])
		if err != nil {
			t.Fatal(err)
		}
		if js.Seq != i+1 {
			t.Fatalf("resumed seq %d, want %d", js.Seq, i+1)
		}
		for _, node := range resumed.Nodes() {
			if !js.Outputs[node].Equal(ref.Outputs[i][node]) {
				t.Errorf("resumed step %d node %s: %s, want %s", i+1, node, js.Outputs[node], ref.Outputs[i][node])
			}
		}
	}

	if err := resumed.RestoreState(&NetState{States: map[string]relation.Instance{"ghost": relation.NewInstance()}}); err == nil {
		t.Error("restore accepted unknown node")
	}
}
