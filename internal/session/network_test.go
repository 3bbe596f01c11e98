package session

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// goldenMarketSpec is the Fig.1-style customer↔supplier conversation as a
// network spec, with a one-product catalog so every step is fully
// predictable.
func goldenMarketSpec() *compose.Spec {
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"widget", "5"})
	return &compose.Spec{
		Nodes: []compose.NodeSpec{
			{Name: "customer", Src: models.NetCustomerSrc},
			{Name: "supplier", Src: models.NetSupplierSrc, DB: db},
		},
		Wires: []compose.WireSpec{
			{From: "customer", Output: "order", To: "supplier", Input: "order"},
			{From: "customer", Output: "pay", To: "supplier", Input: "pay"},
			{From: "supplier", Output: "invoice", To: "customer", Input: "invoice"},
			{From: "supplier", Output: "deliver", To: "customer", Input: "arrived"},
		},
	}
}

// goldFact is one expected log fact; goldStep is the golden joint exchange
// of one step: the external stimulus, the exact wire traffic, and the exact
// per-node log deltas (every listed fact present, nothing else).
type goldFact struct {
	rel string
	tup relation.Tuple
}

type goldStep struct {
	ext  compose.StepInputs
	wire []compose.WireDelta
	logs map[string][]goldFact
}

// goldenMarketTrace is the complete expected joint run: want → order →
// invoice → pay → deliver → arrived, one wire hop per step (unit delay).
func goldenMarketTrace() []goldStep {
	want := relation.NewInstance()
	want.Add("want", relation.Tuple{"widget"})
	return []goldStep{
		{
			ext:  compose.StepInputs{"customer": want},
			wire: nil,
			logs: map[string][]goldFact{
				"customer": {{"order", relation.Tuple{"widget"}}},
				"supplier": {},
			},
		},
		{
			ext: compose.StepInputs{},
			wire: []compose.WireDelta{
				{From: "customer", Output: "order", To: "supplier", Input: "order", Facts: []relation.Tuple{{"widget"}}},
			},
			logs: map[string][]goldFact{
				"customer": {},
				"supplier": {{"invoice", relation.Tuple{"widget", "5"}}},
			},
		},
		{
			ext: compose.StepInputs{},
			wire: []compose.WireDelta{
				{From: "supplier", Output: "invoice", To: "customer", Input: "invoice", Facts: []relation.Tuple{{"widget", "5"}}},
			},
			logs: map[string][]goldFact{
				"customer": {{"pay", relation.Tuple{"widget", "5"}}},
				"supplier": {},
			},
		},
		{
			ext: compose.StepInputs{},
			wire: []compose.WireDelta{
				{From: "customer", Output: "pay", To: "supplier", Input: "pay", Facts: []relation.Tuple{{"widget", "5"}}},
			},
			logs: map[string][]goldFact{
				"customer": {},
				"supplier": {{"deliver", relation.Tuple{"widget"}}},
			},
		},
		{
			ext: compose.StepInputs{},
			wire: []compose.WireDelta{
				{From: "supplier", Output: "deliver", To: "customer", Input: "arrived", Facts: []relation.Tuple{{"widget"}}},
			},
			logs: map[string][]goldFact{
				"customer": {},
				"supplier": {},
			},
		},
	}
}

func factCount(in relation.Instance) int {
	n := 0
	for _, r := range in {
		n += r.Len()
	}
	return n
}

// checkGoldStep asserts one step's wire traffic and per-node logs match the
// golden table exactly.
func checkGoldStep(t *testing.T, label string, seq int, g goldStep, wire []compose.WireDelta, logs compose.StepInputs) {
	t.Helper()
	if len(wire) != len(g.wire) {
		t.Fatalf("%s step %d: wire %v, want %v", label, seq, wire, g.wire)
	}
	for i := range g.wire {
		if !reflect.DeepEqual(wire[i], g.wire[i]) {
			t.Errorf("%s step %d wire %d: %+v, want %+v", label, seq, i, wire[i], g.wire[i])
		}
	}
	for node, facts := range g.logs {
		delta := logs[node]
		if got := factCount(delta); got != len(facts) {
			t.Errorf("%s step %d node %s: log has %d facts, want %d: %s", label, seq, node, got, len(facts), delta)
			continue
		}
		for _, f := range facts {
			if !delta.Has(f.rel, f.tup) {
				t.Errorf("%s step %d node %s: log missing %s%v: %s", label, seq, node, f.rel, f.tup, delta)
			}
		}
	}
}

// TestNetworkGoldenCompose drives the golden trace prefix-by-prefix through
// the compose oracle directly.
func TestNetworkGoldenCompose(t *testing.T) {
	trace := goldenMarketTrace()
	// Prefix-by-prefix: re-run the first k steps from scratch for every k,
	// so a divergence at step i cannot hide behind state from a longer run.
	for k := 1; k <= len(trace); k++ {
		nw, err := goldenMarketSpec().Build(models.Resolve)
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		for i := 0; i < k; i++ {
			js, err := nw.StepOnce(trace[i].ext)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldStep(t, fmt.Sprintf("compose[k=%d]", k), i+1, trace[i], js.Wire, js.Logs)
		}
	}
}

// TestNetworkGoldenEngine drives the same golden trace through the network
// session API and through HTTP, asserting the identical joint exchange.
func TestNetworkGoldenEngine(t *testing.T) {
	e, srv := httpServer(t)
	trace := goldenMarketTrace()

	// Engine API.
	info, err := e.Open(&OpenRequest{Network: goldenMarketSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Network || len(info.Nodes) != 2 {
		t.Fatalf("info = %+v, want network with 2 nodes", info)
	}
	for i, g := range trace {
		res, err := e.NetInput(info.ID, g.ext)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seq != i+1 {
			t.Fatalf("seq %d, want %d", res.Seq, i+1)
		}
		checkGoldStep(t, "engine", i+1, g, res.Wire, res.Logs)
	}
	lr, err := e.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Joint) != len(trace) {
		t.Fatalf("joint log has %d entries, want %d", len(lr.Joint), len(trace))
	}
	for i, g := range trace {
		checkGoldStep(t, "engine log", i+1, g, lr.Joint[i].Wire, lr.Joint[i].Logs)
	}

	// HTTP API: open with the spec, step 1 node-addressed, the rest as
	// empty joint steps.
	var hinfo Info
	if code := call(t, "POST", srv.URL+"/sessions", map[string]any{"network": goldenMarketSpec()}, &hinfo); code != http.StatusCreated {
		t.Fatalf("open network over http: %d", code)
	}
	want := relation.NewInstance()
	want.Add("want", relation.Tuple{"widget"})
	for i, g := range trace {
		var body map[string]any
		if i == 0 {
			body = map[string]any{"node": "customer", "facts": want}
		} else {
			body = map[string]any{"inputs": map[string]any{}}
		}
		var res StepResult
		if code := call(t, "POST", srv.URL+"/sessions/"+hinfo.ID+"/input", body, &res); code != http.StatusOK {
			t.Fatalf("http step %d: %d", i+1, code)
		}
		checkGoldStep(t, "http", i+1, g, res.Wire, res.Logs)
	}
	var hlr LogResult
	if code := call(t, "GET", srv.URL+"/sessions/"+hinfo.ID+"/log", nil, &hlr); code != http.StatusOK {
		t.Fatal("http log fetch failed")
	}
	if len(hlr.Joint) != len(trace) {
		t.Fatalf("http joint log has %d entries, want %d", len(hlr.Joint), len(trace))
	}
}

// genNetCase is a randomly generated network + stimulus for the
// determinism property: a small random topology (1-2 customers, a
// supplier, optionally a fraud monitor) and a random external script.
type genNetCase struct {
	spec   *compose.Spec
	script []compose.StepInputs
}

func (genNetCase) Generate(r *rand.Rand, _ int) reflect.Value {
	products := models.NetProducts()
	nCust := 1 + r.Intn(2)
	db := relation.NewInstance()
	for i, p := range products {
		db.Add("price", relation.Tuple{relation.Const(p), relation.Const(fmt.Sprint(3 + i))})
	}
	spec := &compose.Spec{Nodes: []compose.NodeSpec{{Name: "supplier", Src: models.NetSupplierSrc, DB: db}}}
	var custs []string
	for i := 0; i < nCust; i++ {
		name := fmt.Sprintf("customer%d", i)
		custs = append(custs, name)
		spec.Nodes = append(spec.Nodes, compose.NodeSpec{Name: name, Src: models.NetCustomerSrc})
		spec.Wires = append(spec.Wires,
			compose.WireSpec{From: name, Output: "order", To: "supplier", Input: "order"},
			compose.WireSpec{From: name, Output: "pay", To: "supplier", Input: "pay"},
			compose.WireSpec{From: "supplier", Output: "invoice", To: name, Input: "invoice"},
			compose.WireSpec{From: "supplier", Output: "deliver", To: name, Input: "arrived"},
		)
	}
	if r.Intn(2) == 0 {
		spec.Nodes = append(spec.Nodes, compose.NodeSpec{Name: "monitor", Src: models.NetMonitorSrc})
		for _, name := range custs {
			spec.Wires = append(spec.Wires, compose.WireSpec{From: name, Output: "pay", To: "monitor", Input: "payment"})
		}
		spec.Wires = append(spec.Wires, compose.WireSpec{From: "supplier", Output: "invoice", To: "monitor", Input: "billed"})
	}
	steps := 2 + r.Intn(4)
	script := make([]compose.StepInputs, steps)
	for i := range script {
		script[i] = compose.StepInputs{}
		for _, name := range custs {
			if r.Intn(2) == 0 {
				in := relation.NewInstance()
				in.Add("want", relation.Tuple{relation.Const(products[r.Intn(len(products))])})
				script[i][name] = in
			}
		}
	}
	return reflect.ValueOf(genNetCase{spec: spec, script: script})
}

// jointJSON renders a joint log sequence to canonical JSON for
// byte-identity comparison.
func jointJSON(t *testing.T, joint []JointLogEntry) string {
	t.Helper()
	data, err := json.Marshal(joint)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestNetworkDeterminismQuick is the three-way determinism property: for
// random small networks and random stimulus, the serve path, the compose
// oracle, and WAL replay after an un-clean restart all produce
// byte-identical joint logs.
func TestNetworkDeterminismQuick(t *testing.T) {
	check := func(c genNetCase) bool {
		// Oracle: raw compose stepping.
		nw, err := c.spec.Build(models.Resolve)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		nw.Start()
		var oracle []JointLogEntry
		for _, ext := range c.script {
			js, err := nw.StepOnce(ext)
			if err != nil {
				t.Fatalf("oracle step: %v", err)
			}
			oracle = append(oracle, JointLogEntry{Logs: js.Logs, Wire: js.Wire})
		}

		// Serve path, durable under fsync-always.
		dir := t.TempDir()
		e, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		info, err := e.Open(&OpenRequest{Network: c.spec})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for _, ext := range c.script {
			if _, err := e.NetInput(info.ID, ext); err != nil {
				t.Fatalf("serve step: %v", err)
			}
		}
		served, err := e.Log(info.ID)
		if err != nil {
			t.Fatal(err)
		}

		// Replay path: abandon the engine WITHOUT Shutdown (no final
		// snapshot — recovery must come from the WAL alone; the file handles
		// leak until test exit, which is the point) and recover.
		e2, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer e2.Shutdown()
		replayed, err := e2.Log(info.ID)
		if err != nil {
			t.Fatal(err)
		}

		want := jointJSON(t, oracle)
		if got := jointJSON(t, served.Joint); got != want {
			t.Errorf("serve path diverged from oracle:\n  serve:  %s\n  oracle: %s", got, want)
			return false
		}
		if got := jointJSON(t, replayed.Joint); got != want {
			t.Errorf("WAL replay diverged from oracle:\n  replay: %s\n  oracle: %s", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkRecoverySnapshot: a network session survives snapshot
// compaction + restart and continues stepping from where it left off.
func TestNetworkRecoverySnapshot(t *testing.T) {
	dir := t.TempDir()
	script := models.NetworkScript("marketplace", "widget")
	e, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Open(&OpenRequest{ID: "net-1", Network: models.Network("marketplace")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range script[:3] {
		if _, err := e.NetInput(info.ID, ext); err != nil {
			t.Fatal(err)
		}
	}
	// Force compaction so recovery crosses a snapshot boundary, then step
	// more so the WAL also has post-snapshot joint records.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, ext := range script[3:] {
		if _, err := e.NetInput(info.ID, ext); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Abandon without Shutdown: recovery must merge snapshot + WAL tail.
	e2, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	after, err := e2.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jointJSON(t, before.Joint) != jointJSON(t, after.Joint) {
		t.Fatal("joint log changed across recovery")
	}
	if JointLogDigest(before.Joint) != JointLogDigest(after.Joint) {
		t.Fatal("joint digest changed across recovery")
	}
	// The recovered network keeps stepping: its delay buffer and node
	// states survived, so another empty step must not error.
	res, err := e2.NetInput(info.ID, compose.StepInputs{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != len(script)+1 {
		t.Fatalf("resumed at seq %d, want %d", res.Seq, len(script)+1)
	}
}

// TestNetworkShipInstall: handoff of a network session — the source
// freezes, the state image moves whole, the joint-log digest is verified on
// install, the installed joint log is the source's bit for bit, and the
// installed session keeps stepping identically.
func TestNetworkShipInstall(t *testing.T) {
	e1, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Shutdown()
	e2, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()

	script := models.NetworkScript("customization", "gizmo")
	info, err := e1.Open(&OpenRequest{Network: models.Network("customization")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range script[:4] {
		if _, err := e1.NetInput(info.ID, ext); err != nil {
			t.Fatal(err)
		}
	}
	image, err := e1.ExportState(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Frozen: further joint steps must fail.
	if _, err := e1.NetInput(info.ID, compose.StepInputs{}); err == nil {
		t.Fatal("frozen network session accepted a step")
	}
	se, err := DecodeStateExport(image)
	if err != nil {
		t.Fatal(err)
	}
	if se.Image.Net == nil || se.Image.Steps != 4 {
		t.Fatalf("state export of a network session: net image %v, steps %d", se.Image.Net != nil, se.Image.Steps)
	}
	// A corrupted digest must be rejected.
	bad := *se
	bad.Digest = "0000"
	badImage, err := EncodeStateExport(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Install(badImage); err == nil {
		t.Fatal("install accepted a corrupted digest")
	}
	if _, err := e2.Install(image); err != nil {
		t.Fatal(err)
	}
	src, err := e1.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := e2.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jointJSON(t, src.Joint) != jointJSON(t, dst.Joint) {
		t.Fatal("installed joint log differs from source")
	}

	// Both copies step the remaining script identically. (The source is
	// frozen; thaw it to compare.)
	if err := e1.Unfreeze(info.ID); err != nil {
		t.Fatal(err)
	}
	for _, ext := range script[4:] {
		r1, err := e1.NetInput(info.ID, ext)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.NetInput(info.ID, ext)
		if err != nil {
			t.Fatal(err)
		}
		d1, _ := json.Marshal(r1)
		d2, _ := json.Marshal(r2)
		if string(d1) != string(d2) {
			t.Fatalf("installed copy diverged:\n  src: %s\n  dst: %s", d1, d2)
		}
	}
}

// TestNetworkHTTPErrors: the HTTP surface rejects shape mismatches — plain
// inputs on network sessions, node-addressed inputs on plain sessions,
// unknown nodes, unknown relations, and verification without ?node=.
func TestNetworkHTTPErrors(t *testing.T) {
	_, srv := httpServer(t)

	var netInfo Info
	if code := call(t, "POST", srv.URL+"/sessions", map[string]any{"network": goldenMarketSpec()}, &netInfo); code != http.StatusCreated {
		t.Fatalf("open network: %d", code)
	}
	var plainInfo Info
	if code := call(t, "POST", srv.URL+"/sessions", map[string]any{"model": "short"}, &plainInfo); code != http.StatusCreated {
		t.Fatalf("open plain: %d", code)
	}

	cases := []struct {
		name string
		id   string
		body map[string]any
		want int
	}{
		{"plain input on network session", netInfo.ID, map[string]any{"input": map[string]any{}}, http.StatusBadRequest},
		{"node input on plain session", plainInfo.ID, map[string]any{"node": "customer", "facts": map[string]any{}}, http.StatusBadRequest},
		{"unknown node", netInfo.ID, map[string]any{"node": "ghost", "facts": map[string]any{}}, http.StatusBadRequest},
		{"unknown relation", netInfo.ID, map[string]any{"node": "customer", "facts": map[string]any{"nope": []any{[]any{"x"}}}}, http.StatusBadRequest},
		{"arity mismatch", netInfo.ID, map[string]any{"node": "customer", "facts": map[string]any{"want": []any{[]any{"a", "b"}}}}, http.StatusBadRequest},
		{"empty joint step ok", netInfo.ID, map[string]any{"inputs": map[string]any{}}, http.StatusOK},
	}
	for _, tc := range cases {
		if code := call(t, "POST", srv.URL+"/sessions/"+tc.id+"/input", tc.body, nil); code != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, code, tc.want)
		}
	}

	// Verification requires node addressing on network sessions...
	if code := call(t, "GET", srv.URL+"/sessions/"+netInfo.ID+"/verify?goal=deliver(widget)", nil, nil); code != http.StatusBadRequest {
		t.Errorf("verify without node: got %d, want 400", code)
	}
	if code := call(t, "GET", srv.URL+"/sessions/"+netInfo.ID+"/verify?goal=deliver(widget)&node=ghost", nil, nil); code != http.StatusBadRequest {
		t.Errorf("verify unknown node: got %d, want 400", code)
	}
	if code := call(t, "GET", srv.URL+"/sessions/"+netInfo.ID+"/verify?goal=deliver(widget)&node=supplier", nil, nil); code != http.StatusOK {
		t.Errorf("verify supplier node: got %d, want 200", code)
	}
	// ...and rejects it on plain sessions.
	if code := call(t, "GET", srv.URL+"/sessions/"+plainInfo.ID+"/verify?goal=deliver(time)&node=x", nil, nil); code != http.StatusBadRequest {
		t.Errorf("verify plain session with node: got %d, want 400", code)
	}

	// /networks lists the generated networks.
	var nets struct {
		Networks []string `json:"networks"`
	}
	if code := call(t, "GET", srv.URL+"/networks", nil, &nets); code != http.StatusOK || len(nets.Networks) < 3 {
		t.Errorf("GET /networks: code %d, %v", code, nets.Networks)
	}

	// Open validation: network+model, and a broken spec.
	if code := call(t, "POST", srv.URL+"/sessions", map[string]any{"model": "short", "network": goldenMarketSpec()}, nil); code != http.StatusBadRequest {
		t.Errorf("network+model open: got %d, want 400", code)
	}
	badSpec := goldenMarketSpec()
	badSpec.Wires[0].Input = "pay" // arity mismatch
	if code := call(t, "POST", srv.URL+"/sessions", map[string]any{"network": badSpec}, nil); code != http.StatusBadRequest {
		t.Errorf("bad wire open: got %d, want 400", code)
	}
}
