package session

import (
	"testing"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// Idempotency keys: a step already applied under (session, key) is answered
// from the log with Duplicate set, not applied again — and the key table
// rides the WAL and snapshot images, so dedupe survives recovery, handoff,
// and promotion.

func TestIdempotencyKeyDedupes(t *testing.T) {
	e := memEngine(t, 2)
	info, err := e.Open(&OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	ins := models.Fig1Inputs()
	res1, err := e.InputKey(info.ID, "k1", ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if res1.Duplicate {
		t.Fatal("first use of a key marked duplicate")
	}
	// Same key again: answered from the log, session does not advance.
	res2, err := e.InputKey(info.ID, "k1", ins[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Duplicate || res2.Seq != res1.Seq {
		t.Fatalf("retry under k1: got seq %d dup=%v, want seq %d dup=true", res2.Seq, res2.Duplicate, res1.Seq)
	}
	if !res2.Log.Equal(res1.Log) {
		t.Fatalf("retry log delta differs:\n got %s\nwant %s", res2.Log, res1.Log)
	}
	in2, err := e.Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in2.Steps != 1 {
		t.Fatalf("session advanced to %d steps on a duplicate", in2.Steps)
	}
	// A fresh key applies normally.
	res3, err := e.InputKey(info.ID, "k2", ins[1])
	if err != nil {
		t.Fatal(err)
	}
	if res3.Duplicate || res3.Seq != 2 {
		t.Fatalf("fresh key: seq %d dup=%v", res3.Seq, res3.Duplicate)
	}
	// Unkeyed steps never dedupe.
	if res, err := e.Input(info.ID, ins[2]); err != nil || res.Seq != 3 {
		t.Fatalf("unkeyed step: %v %+v", err, res)
	}
	if st := e.Stats(); st.DedupedSteps != 1 {
		t.Fatalf("deduped_steps_total = %d, want 1", st.DedupedSteps)
	}
}

func TestIdempotencyKeySurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Open(&OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	ins := models.Fig1Inputs()
	if _, err := e.InputKey(info.ID, "boot-key", ins[0]); err != nil {
		t.Fatal(err)
	}
	// Crash (no Shutdown, no snapshot): the key must come back from the WAL.
	e2, err := NewEngine(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.InputKey(info.ID, "boot-key", ins[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.Seq != 1 {
		t.Fatalf("after recovery: seq %d dup=%v, want seq 1 dup=true", res.Seq, res.Duplicate)
	}
	// And through a snapshot: force compaction, crash again, still deduped.
	if err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	e3, err := NewEngine(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Shutdown()
	res, err = e3.InputKey(info.ID, "boot-key", ins[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.Seq != 1 {
		t.Fatalf("after snapshot recovery: seq %d dup=%v", res.Seq, res.Duplicate)
	}
}

func TestIdempotencyKeyNetworkAndHandoff(t *testing.T) {
	e := memEngine(t, 2)
	spec := models.Network("marketplace")
	if spec == nil {
		t.Skip("no marketplace network in registry")
	}
	info, err := e.Open(&OpenRequest{Network: spec})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := e.NetInputKey(info.ID, "nk1", compose.StepInputs{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.NetInputKey(info.ID, "nk1", compose.StepInputs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Duplicate || res2.Seq != res1.Seq {
		t.Fatalf("network retry: seq %d dup=%v", res2.Seq, res2.Duplicate)
	}
	// The key table ships with the state image: install on a second engine
	// and the duplicate is still recognized there.
	se, err := e.ExportState(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	e2 := memEngine(t, 2)
	if _, err := e2.Install(se); err != nil {
		t.Fatal(err)
	}
	res3, err := e2.NetInputKey(info.ID, "nk1", compose.StepInputs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Duplicate || res3.Seq != res1.Seq {
		t.Fatalf("post-install retry: seq %d dup=%v", res3.Seq, res3.Duplicate)
	}
}

func TestIdempotencyKeyBeatsFrozen(t *testing.T) {
	// A duplicate of an already-acked step answers even while the session is
	// frozen for handoff — the client's retry must not 503 when the answer
	// is already durable.
	e := memEngine(t, 1)
	info, err := e.Open(&OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	ins := models.Fig1Inputs()
	if _, err := e.InputKey(info.ID, "k", ins[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExportState(info.ID); err != nil { // freezes
		t.Fatal(err)
	}
	res, err := e.InputKey(info.ID, "k", ins[0])
	if err != nil {
		t.Fatalf("keyed retry on frozen session: %v", err)
	}
	if !res.Duplicate {
		t.Fatal("retry not marked duplicate")
	}
	// A fresh keyed step is still refused while frozen.
	if _, err := e.InputKey(info.ID, "k-new", relation.NewInstance()); err == nil {
		t.Fatal("fresh step on frozen session succeeded")
	}
}
