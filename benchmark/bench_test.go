package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// smoke is every workload at about a thousandth of its size.
func smoke(t *testing.T, seed int64) params {
	pin()
	return params{seed: seed, seconds: 10, scale: 0.001, small: true, tmp: t.TempDir()}
}

func parse(t *testing.T, line string) *result {
	t.Helper()
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return &res
}

// TestSmoke runs all five workloads and their traced runs and checks the
// contract of the output: every named metric is emitted with its unit, none
// is NaN or negative, nothing failed, and no step fell back to the tree
// evaluator.
func TestSmoke(t *testing.T) {
	present := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runOne(io.Discard, w, smoke(t, 1), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := parse(t, out.line)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || out.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := gated
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, catalogue has %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing from the result line", w.name, traced, d.name)
					continue
				}
				if v.Unit != d.unit || d.unit == "" {
					t.Errorf("%s: %s has unit %q, catalogue says %q", w.name, d.name, v.Unit, d.unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s: %s = %v", w.name, d.name, v.Value)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: gated metric %s is 0", w.name, d.name)
				}
			}
			for name, v := range out.rep.values {
				present[name] = true
				if math.IsNaN(v.v) || v.v < 0 {
					t.Errorf("%s: %s = %v", w.name, name, v.v)
				}
			}
			if v, _ := out.rep.get("failed_share"); v != 0 {
				t.Errorf("%s: failed_share = %v", w.name, v)
			}
			if v, ok := out.rep.get("ra.tree_fallbacks"); !ok || v != 0 {
				t.Errorf("%s: ra.tree_fallbacks = %v (present %v)", w.name, v, ok)
			}
		}
	}
	// Tail percentiles need ten samples beyond them, which a run this small
	// cannot have for the rarer operations.
	rare := map[string]bool{"batch_ack_p99_us": true, "verify_p99_us": true, "step_ack_p99_us": true}
	for _, list := range [][]metricDef{gated, perLayer} {
		for _, d := range list {
			if !present[d.name] && !rare[d.name] {
				t.Errorf("no workload produced %s", d.name)
			}
		}
	}
}

// TestSeed checks the generator: the same seed gives a byte-identical
// operation stream and the same count metrics, another seed another stream.
func TestSeed(t *testing.T) {
	counts := map[string]string{
		"durable_batch": "stored_bytes_per_step",
		"wide_mem":      "ra.rows_pulled_per_step",
		"cluster_http":  "wire.body_bytes_per_step",
	}
	for _, w := range workloads {
		a, err := runOne(io.Discard, w, smoke(t, 7), false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(io.Discard, w, smoke(t, 7), false)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave two different operation streams", w.name)
		}
		sessions, steps := w.size(smoke(t, 8))
		if other := w.gen(8, sessions, steps).digest(); other == a.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w.name)
		}
		if name, ok := counts[w.name]; ok {
			x, okx := a.rep.get(name)
			y, oky := b.rep.get(name)
			if !okx || !oky || x == 0 || math.Abs(x-y)/x > 0.02 {
				t.Errorf("%s: %s = %v then %v on the same seed", w.name, name, x, y)
			}
		}
	}
}

// TestGateCatchesMismatch tampers with one session's record of what it sent
// and expects the oracle to notice, once.
func TestGateCatchesMismatch(t *testing.T) {
	w := workloadByName("wide_mem")
	f, err := setUp(w, smoke(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.tearDown()
	f.measure()
	if f.check(); f.failed != 0 {
		t.Fatalf("clean run failed %d operations: %v", f.failed, f.failNote)
	}
	victim := f.plan.sessions[sample(f.p.seed, len(f.plan.sessions), oracleSample)[0]]
	victim.inputs[0], victim.inputs[1] = victim.inputs[1], victim.inputs[0]
	// One session's log check fails, and counts once.
	if f.check(); f.failed != 1 {
		t.Fatalf("session %s had its first two inputs swapped: the gate counted %d failures, want 1", victim.id, f.failed)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the catalogue together.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	// The driver's side of the contract: how it starts the benchmark, where
	// the benchmark lives, and the --seconds it passes (the -seconds default).
	if got := strings.Join(spec.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command is %q, want bash benchmark/run.sh", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths is %q, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds != 10 {
		t.Errorf("run_seconds is %d, want 10", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the catalogue %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if (d.bound > 0) != (g.Bound != nil) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s: bound in BENCHMARK.json does not match the catalogue's %v", d.name, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, gated)
	same("per_layer", spec.PerLayer, perLayer)
}
