package session

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/models"
)

// Tests for the batched input path: the differential guarantee that a
// batch of one is byte-identical to the single-step path (results, logs,
// and the raw WAL bytes on disk), strictly per-item partial failure,
// idempotency-key dedupe both against the persisted table and within a
// group, and recovery of multi-step recBatch records.

// walBytes concatenates every WAL segment of a single-shard engine dir in
// segment order, so two engines driven identically can be compared
// byte-for-byte.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	var buf bytes.Buffer
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// TestBatchOfOneByteIdentical drives the same session twice — once through
// Input/InputKey, once through InputBatch with one-item groups — and
// requires identical step results, identical logs, and identical WAL bytes
// on disk. This is the contract that lets every client batch
// unconditionally: a batch of one costs nothing and changes nothing.
func TestBatchOfOneByteIdentical(t *testing.T) {
	wantOut, wantLogs := fig1Reference(t)
	inputs := models.Fig1Inputs()
	keys := []string{"", "k2", ""} // mix keyed and unkeyed steps

	dirA, dirB := t.TempDir(), t.TempDir()
	ea, err := NewEngine(Config{Dir: dirA, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Shutdown() })
	eb, err := NewEngine(Config{Dir: dirB, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eb.Shutdown() })

	for _, e := range []*Engine{ea, eb} {
		if _, err := e.Open(&OpenRequest{ID: "twin", Model: "short"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range inputs {
		ra, err := ea.InputKey("twin", keys[i], in)
		if err != nil {
			t.Fatalf("single step %d: %v", i+1, err)
		}
		res := eb.InputBatch([]BatchItem{{Session: "twin", Key: keys[i], Input: in}})
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("batch step %d: %+v", i+1, res)
		}
		rb := res[0].Result
		if ra.Seq != rb.Seq || !ra.Output.Equal(rb.Output) || !ra.Log.Equal(rb.Log) || ra.Valid != rb.Valid {
			t.Errorf("step %d diverged:\n single %+v\n batch  %+v", i+1, ra, rb)
		}
		if !rb.Output.Equal(wantOut[i]) || !rb.Log.Equal(wantLogs[i]) {
			t.Errorf("step %d batch result differs from oracle", i+1)
		}
	}
	la, _ := ea.Log("twin")
	lb, _ := eb.Log("twin")
	if !la.Log.Equal(lb.Log) || la.Steps != lb.Steps {
		t.Fatalf("logs diverged:\n single %v\n batch  %v", la, lb)
	}
	// The WAL must agree byte for byte: a one-item group lowers to an
	// ordinary recStep record, and records carry no timestamps.
	ba, bb := walBytes(t, dirA), walBytes(t, dirB)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("WAL bytes diverged: single-step %d bytes, batch-of-1 %d bytes", len(ba), len(bb))
	}
}

// TestBatchPartialFailure mixes healthy items with a missing session and an
// invalid input in one group and requires strictly per-item outcomes: the
// bad items fail with their own typed errors, the good items apply, and
// ordering within the surviving session is untouched.
func TestBatchPartialFailure(t *testing.T) {
	e := memEngine(t, 2)
	inputs := models.Fig1Inputs()
	if _, err := e.Open(&OpenRequest{ID: "good", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	res := e.InputBatch([]BatchItem{
		{Session: "good", Input: inputs[0]},
		{Session: "ghost", Input: inputs[0]},                     // no such session
		{Session: "good", Input: step(t, fact("nonsense", "x"))}, // unknown relation
		{Session: "good", Input: inputs[1]},
	})
	if res[0].Err != nil || res[0].Result.Seq != 1 {
		t.Errorf("item 0: %+v", res[0])
	}
	if !errors.As(res[1].Err, new(*NotFoundError)) {
		t.Errorf("item 1: %v, want NotFoundError", res[1].Err)
	}
	if !errors.As(res[2].Err, new(*BadInputError)) {
		t.Errorf("item 2: %v, want BadInputError", res[2].Err)
	}
	if res[3].Err != nil || res[3].Result.Seq != 2 {
		t.Errorf("item 3: %+v — a rejected neighbor must not disturb later items", res[3])
	}
	lr, err := e.Log("good")
	if err != nil || lr.Steps != 2 {
		t.Fatalf("after partial failure: steps=%d err=%v", lr.Steps, err)
	}
}

// TestBatchKeyDedupe exercises idempotency keys inside a group: a key
// repeated WITHIN one batch answers the earlier item's step without
// reapplying, and a key already in the persisted table dedupes exactly as
// the single-step path would.
func TestBatchKeyDedupe(t *testing.T) {
	e := memEngine(t, 2)
	inputs := models.Fig1Inputs()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	// Persist a keyed step first, then batch: a replay of that key, a fresh
	// key, and an in-batch repeat of the fresh key.
	if _, err := e.InputKey("s", "old", inputs[0]); err != nil {
		t.Fatal(err)
	}
	res := e.InputBatch([]BatchItem{
		{Session: "s", Key: "old", Input: inputs[0]}, // persisted-table dup
		{Session: "s", Key: "new", Input: inputs[1]}, // applies as seq 2
		{Session: "s", Key: "new", Input: inputs[2]}, // in-batch dup of seq 2
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if !res[0].Result.Duplicate || res[0].Result.Seq != 1 {
		t.Errorf("persisted dup: %+v", res[0].Result)
	}
	if res[1].Result.Duplicate || res[1].Result.Seq != 2 {
		t.Errorf("fresh key: %+v", res[1].Result)
	}
	if !res[2].Result.Duplicate || res[2].Result.Seq != 2 {
		t.Errorf("in-batch dup: %+v", res[2].Result)
	}
	if lr, _ := e.Log("s"); lr.Steps != 2 {
		t.Errorf("steps=%d, want 2 — duplicates must not reapply", lr.Steps)
	}
	if n := e.Stats().DedupedSteps; n != 2 {
		t.Errorf("deduped_steps=%d, want 2", n)
	}
}

// TestBatchRecovery writes a multi-step group (a recBatch record), crashes
// without shutdown, and recovers: the whole group survives as one unit and
// its idempotency keys are back in the table.
func TestBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	_, wantLogs := fig1Reference(t)
	inputs := models.Fig1Inputs()

	e1, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	res := e1.InputBatch([]BatchItem{
		{Session: "s", Key: "a", Input: inputs[0]},
		{Session: "s", Input: inputs[1]},
		{Session: "s", Key: "c", Input: inputs[2]},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	// Crash: no Shutdown. Reopen and replay.
	e2, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Shutdown() })
	lr, err := e2.Log("s")
	if err != nil {
		t.Fatal(err)
	}
	if lr.Steps != 3 || !lr.Log.Equal(wantLogs) {
		t.Fatalf("recovered log:\n got steps=%d %s\nwant %s", lr.Steps, lr.Log, wantLogs)
	}
	rk, err := e2.InputKey("s", "c", inputs[2])
	if err != nil || !rk.Duplicate || rk.Seq != 3 {
		t.Fatalf("key replay after recovery: %+v err=%v", rk, err)
	}
}

// TestHTTPBatch drives the multi-session /batch and checks the positional
// per-item statuses and the 200 envelope around item failures. An array
// body on /sessions/{id}/input is not a batch: it answers 400 and names
// /batch.
func TestHTTPBatch(t *testing.T) {
	e, srv := httpServer(t)
	wantOut, _ := fig1Reference(t)
	inputs := models.Fig1Inputs()

	var a, b Info
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short"}, &a); st != http.StatusCreated {
		t.Fatalf("open a: %d", st)
	}
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short"}, &b); st != http.StatusCreated {
		t.Fatalf("open b: %d", st)
	}

	// An array body answers 400, names POST /batch, and applies nothing.
	var em map[string]string
	st := call(t, "POST", fmt.Sprintf("%s/sessions/%s/input", srv.URL, a.ID), []map[string]any{
		{"input": inputs[0], "key": "k1"},
		{"input": inputs[1]},
	}, &em)
	if st != http.StatusBadRequest || !strings.Contains(em["error"], "POST /batch") {
		t.Fatalf("array body: status %d %v, want 400 naming POST /batch", st, em)
	}
	if lr, err := e.Log(a.ID); err != nil || lr.Steps != 0 {
		t.Fatalf("after the array body: %+v, %v — want no step", lr, err)
	}

	// One session's two steps in one /batch.
	var br BatchResponse
	st = call(t, "POST", srv.URL+"/batch", BatchRequest{Steps: []BatchItem{
		{Session: a.ID, Key: "k1", Input: inputs[0]},
		{Session: a.ID, Input: inputs[1]},
	}}, &br)
	if st != http.StatusOK || len(br.Results) != 2 || !br.OK() {
		t.Fatalf("one-session batch: status %d results %+v", st, br.Results)
	}
	if br.Results[0].Result.Seq != 1 || !br.Results[0].Result.Output.Equal(wantOut[0]) {
		t.Errorf("batch item 0: %+v", br.Results[0])
	}
	if br.Results[1].Result.Seq != 2 {
		t.Errorf("batch item 1: %+v", br.Results[1])
	}

	// /batch: two sessions plus one failing item; the envelope stays 200 and
	// statuses are positional.
	br = BatchResponse{}
	st = call(t, "POST", srv.URL+"/batch", BatchRequest{Steps: []BatchItem{
		{Session: a.ID, Input: inputs[2]},
		{Session: "ghost", Input: inputs[0]},
		{Session: b.ID, Key: "bk", Input: inputs[0]},
		{Session: b.ID, Key: "bk", Input: inputs[1]}, // in-batch dup over HTTP
	}}, &br)
	if st != http.StatusOK || len(br.Results) != 4 {
		t.Fatalf("/batch: status %d results %d", st, len(br.Results))
	}
	if br.Results[0].Status != http.StatusOK || br.Results[0].Result.Seq != 3 {
		t.Errorf("/batch item 0: %+v", br.Results[0])
	}
	if br.Results[1].Status != http.StatusNotFound || br.Results[1].Error == "" {
		t.Errorf("/batch item 1: %+v, want per-item 404", br.Results[1])
	}
	if br.OK() {
		t.Error("OK() must be false when an item failed")
	}
	if br.Results[2].Status != http.StatusOK || br.Results[2].Result.Seq != 1 {
		t.Errorf("/batch item 2: %+v", br.Results[2])
	}
	if br.Results[3].Status != http.StatusOK || !br.Results[3].Result.Duplicate || br.Results[3].Result.Seq != 1 {
		t.Errorf("/batch item 3: %+v, want duplicate of seq 1", br.Results[3])
	}

	// Empty batches are an envelope error, not an empty success.
	em = map[string]string{}
	if st := call(t, "POST", srv.URL+"/batch", BatchRequest{}, &em); st != http.StatusBadRequest {
		t.Errorf("empty /batch: %d, want 400", st)
	}

	// One-session batches spanning shards with the multi-session shape keep
	// positional order even when fan-in reorders completion.
	var ids []string
	for i := 0; i < 4; i++ {
		var in Info
		if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short"}, &in); st != http.StatusCreated {
			t.Fatalf("open %d: %d", i, st)
		}
		ids = append(ids, in.ID)
	}
	var steps []BatchItem
	for _, id := range ids {
		steps = append(steps, BatchItem{Session: id, Input: inputs[0]})
	}
	br = BatchResponse{}
	if st := call(t, "POST", srv.URL+"/batch", BatchRequest{Steps: steps}, &br); st != http.StatusOK || !br.OK() {
		t.Fatalf("cross-shard batch: status %d %+v", st, br.Results)
	}
	for i, r := range br.Results {
		if r.Result == nil || r.Result.ID != ids[i] {
			t.Errorf("cross-shard item %d answered for %v, want %s — positional order broken", i, r.Result, ids[i])
		}
	}

	// results=errors: the sparse ack shape. An all-OK envelope answers with
	// just the count; failures come back as (pos, status) pairs.
	br = BatchResponse{}
	st = call(t, "POST", srv.URL+"/batch", BatchRequest{Results: "errors", Steps: []BatchItem{
		{Session: a.ID, Input: inputs[0]},
		{Session: "ghost", Input: inputs[0]},
		{Session: b.ID, Input: inputs[2]},
	}}, &br)
	if st != http.StatusOK || br.Results != nil || br.N != 3 {
		t.Fatalf("errors mode: status %d n %d results %+v", st, br.N, br.Results)
	}
	if len(br.Failed) != 1 || br.Failed[0].Pos != 1 || br.Failed[0].Status != http.StatusNotFound || br.OK() {
		t.Errorf("errors mode failed list: %+v", br.Failed)
	}
	br = BatchResponse{}
	st = call(t, "POST", srv.URL+"/batch", BatchRequest{Results: "errors", Steps: []BatchItem{
		{Session: a.ID, Input: inputs[1]},
	}}, &br)
	if st != http.StatusOK || br.N != 1 || len(br.Failed) != 0 || !br.OK() {
		t.Errorf("errors mode all-OK: status %d %+v", st, br)
	}

	// An unknown results selector is an envelope error.
	em = map[string]string{}
	if st := call(t, "POST", srv.URL+"/batch", BatchRequest{Results: "verbose", Steps: []BatchItem{
		{Session: a.ID, Input: inputs[0]},
	}}, &em); st != http.StatusBadRequest {
		t.Errorf("results=verbose: %d, want 400", st)
	}
}
