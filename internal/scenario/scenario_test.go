package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// TestFleetValid: the committed fleet validates, plans, and covers the four
// required families (model mix, marketplace, fraud, mixed open-loop).
func TestFleetValid(t *testing.T) {
	fleet := Fleet()
	if len(fleet) < 4 {
		t.Fatalf("fleet has %d scenarios, want >= 4", len(fleet))
	}
	names := map[string]bool{}
	for _, sp := range fleet {
		if err := sp.Validate(); err != nil {
			t.Errorf("fleet scenario %s invalid: %v", sp.Name, err)
		}
		names[sp.Name] = true
		plans, err := sp.Plan("t")
		if err != nil {
			t.Fatalf("plan %s: %v", sp.Name, err)
		}
		if len(plans) != sp.Sessions {
			t.Errorf("%s planned %d sessions, want %d", sp.Name, len(plans), sp.Sessions)
		}
	}
	for _, want := range []string{"registry-mix", "marketplace", "fraud", "mixed-open"} {
		if !names[want] {
			t.Errorf("fleet is missing scenario %q", want)
		}
	}
	// The fleet round-trips through its own JSON form.
	data, err := json.Marshal(fleet)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseFleet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(fleet) {
		t.Fatalf("round trip lost scenarios: %d != %d", len(again), len(fleet))
	}
}

// TestCounts: largest-remainder apportionment is exact and deterministic.
func TestCounts(t *testing.T) {
	sp := &Spec{
		Name:     "c",
		Sessions: 10,
		Steps:    1,
		Mix: []Element{
			{Model: "short", Weight: 3},
			{Model: "friendly", Weight: 3},
			{Model: "strict", Weight: 1},
		},
	}
	counts := sp.Counts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != sp.Sessions {
		t.Fatalf("counts %v sum to %d, want %d", counts, total, sp.Sessions)
	}
	// 10*3/7 = 4 rem 2, 10*3/7 = 4 rem 2, 10*1/7 = 1 rem 3: the leftover
	// session goes to the largest remainder — pin the deterministic answer.
	want := []int{4, 4, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

// TestValidateRejections: each malformed spec is rejected with a
// recognizable error.
func TestValidateRejections(t *testing.T) {
	ok := func() *Spec {
		return &Spec{Name: "v", Sessions: 2, Steps: 3, Mix: []Element{{Model: "short"}}}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"zero sessions", func(s *Spec) { s.Sessions = 0 }, "sessions"},
		{"huge sessions", func(s *Spec) { s.Sessions = maxSessions + 1 }, "sessions"},
		{"zero steps", func(s *Spec) { s.Steps = 0 }, "steps"},
		{"bad arrival", func(s *Spec) { s.Arrival = "poisson" }, "arrival"},
		{"open without rate", func(s *Spec) { s.Arrival = Open }, "rate"},
		{"closed with rate", func(s *Spec) { s.Rate = 5 }, "rate applies only"},
		{"empty mix", func(s *Spec) { s.Mix = nil }, "mix is empty"},
		{"unknown model", func(s *Spec) { s.Mix[0].Model = "nope" }, "unknown model"},
		{"unknown network", func(s *Spec) { s.Mix[0] = Element{Network: "nope"} }, "unknown network"},
		{"model and network", func(s *Spec) { s.Mix[0].Network = "fraud" }, "exactly one"},
		{"neither", func(s *Spec) { s.Mix[0] = Element{} }, "exactly one"},
		{"negative weight", func(s *Spec) { s.Mix[0].Weight = -1 }, "weight"},
		{"zero total weight", func(s *Spec) { s.Mix[0].Weight = 0; s.Sessions = 1; s.Mix[0].Model = "short" }, ""},
	}
	for _, tc := range cases {
		sp := ok()
		tc.mut(sp)
		err := sp.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateInlineSpec: inline network specs are built during validation,
// so wire arity mismatches and duplicate nodes are caught before any
// session opens; cyclic wiring is legal.
func TestValidateInlineSpec(t *testing.T) {
	base := func() *Spec {
		return &Spec{Name: "i", Sessions: 1, Steps: 2, Mix: []Element{{Spec: models.Network("marketplace")}}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("inline marketplace spec rejected: %v", err)
	}

	dup := base()
	dup.Mix[0].Spec.Nodes = append(dup.Mix[0].Spec.Nodes, dup.Mix[0].Spec.Nodes[0])
	if err := dup.Validate(); err == nil {
		t.Error("duplicate node accepted")
	}

	arity := base()
	arity.Mix[0].Spec.Wires[0].Input = "pay" // order/1 wired into pay/2
	if err := arity.Validate(); err == nil {
		t.Error("wire arity mismatch accepted")
	}

	ghost := base()
	ghost.Mix[0].Spec.Wires[0].To = "nobody"
	if err := ghost.Validate(); err == nil {
		t.Error("wire to unknown node accepted")
	}

	// A self-loop is legal under unit delay.
	cyc := &Spec{Name: "cyc", Sessions: 1, Steps: 2, Mix: []Element{{Spec: &compose.Spec{
		Nodes: []compose.NodeSpec{{Name: "echo", Src: models.NetShipperSrc}},
		Wires: []compose.WireSpec{{From: "echo", Output: "shipped", To: "echo", Input: "request"}},
	}}}}
	if err := cyc.Validate(); err != nil {
		t.Errorf("cyclic wiring rejected: %v", err)
	}
}

// TestPlanDeterminism: two plans of the same spec are identical — IDs,
// steps, and the scripts themselves, step by step.
func TestPlanDeterminism(t *testing.T) {
	for _, sp := range Fleet() {
		a, err := sp.Plan("d")
		if err != nil {
			t.Fatal(err)
		}
		b, err := sp.Plan("d")
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Steps != b[i].Steps || a[i].IsNetwork() != b[i].IsNetwork() {
				t.Fatalf("%s plan %d differs: %+v vs %+v", sp.Name, i, a[i], b[i])
			}
			for j := 0; j < a[i].Steps; j++ {
				var da, db []byte
				if a[i].IsNetwork() {
					da, _ = json.Marshal(a[i].NetInput(j))
					db, _ = json.Marshal(b[i].NetInput(j))
				} else {
					da, _ = json.Marshal(a[i].Input(j))
					db, _ = json.Marshal(b[i].Input(j))
				}
				if string(da) != string(db) {
					t.Fatalf("%s session %s step %d differs: %s vs %s", sp.Name, a[i].ID, j, da, db)
				}
			}
		}
	}
}

// TestScriptsRunnable: every model script actually steps its machine
// (inputs match the schema), and every network script steps its network.
func TestScriptsRunnable(t *testing.T) {
	for _, name := range models.Names() {
		m := models.Get(name)
		state := relation.NewInstance()
		db := modelDB(name)
		script := modelScript(name, 0)
		for j := 0; j < 12; j++ {
			in := script(j)
			for rel, r := range in {
				a, ok := m.Schema().In.Arity(rel)
				if !ok {
					t.Fatalf("model %s step %d: %s is not an input relation", name, j, rel)
				}
				if r.Len() > 0 && r.Arity() != a {
					t.Fatalf("model %s step %d: %s arity %d, want %d", name, j, rel, r.Arity(), a)
				}
			}
			next, _, err := m.Step(in, state, db)
			if err != nil {
				t.Fatalf("model %s step %d: %v", name, j, err)
			}
			state = next
		}
	}
	for _, name := range models.NetworkNames() {
		nw, err := models.Network(name).Build(models.Resolve)
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		script := networkScript(name, 0)
		for j := 0; j < 20; j++ {
			nw.StepOnce(script(j))
		}
	}
}

// TestStartOffset: closed loop starts everyone at zero; open loop spaces
// arrivals at 1/rate.
func TestStartOffset(t *testing.T) {
	closed := &Spec{Arrival: Closed}
	if closed.StartOffset(7) != 0 {
		t.Error("closed-loop start offset should be zero")
	}
	open := &Spec{Arrival: Open, Rate: 100}
	if got, want := open.StartOffset(50), 500*time.Millisecond; got != want {
		t.Errorf("open-loop offset = %v, want %v", got, want)
	}
}
