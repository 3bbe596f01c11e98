package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// The fixtures under testdata/parent_* were written by the commit before
// the input history was retired (36221863): their images carry each
// session's input sequence and, for machine sessions, no past. Both hold
// session m1 (SHORT, the Figure 1 inputs, step 1 keyed "k1") and session n1
// (the marketplace network on its widget script): as ship images, and as
// engine directories — a snapshot taken after m1's step 2 and n1's step 3,
// then a WAL tail — in the binary and in the JSON write codec.

// compatOracle steps m1 and n1 afresh on this commit's engine: what the
// fixtures must restore to.
func compatOracle(t *testing.T) *Engine {
	t.Helper()
	e := memEngine(t, 1)
	if _, err := e.Open(&OpenRequest{ID: "m1", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(&OpenRequest{ID: "n1", Network: models.Network("marketplace")}); err != nil {
		t.Fatal(err)
	}
	for _, in := range models.Fig1Inputs() {
		if _, err := e.Input("m1", in); err != nil {
			t.Fatal(err)
		}
	}
	for _, ext := range models.NetworkScript("marketplace", "widget") {
		if _, err := e.NetInput("n1", ext); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// assertSameSessions compares m1 and n1 on got against the oracle: logs,
// log digests, and the cumulated pasts the verification plane reads.
func assertSameSessions(t *testing.T, got, want *Engine) {
	t.Helper()
	for _, id := range []string{"m1", "n1"} {
		gl, err := got.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := want.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		if gl.Steps != wl.Steps || !gl.Log.Equal(wl.Log) || jointJSON(t, gl.Joint) != jointJSON(t, wl.Joint) {
			t.Fatalf("%s: restored log differs from a fresh run\n got %d steps %s %s\nwant %d steps %s %s",
				id, gl.Steps, gl.Log, jointJSON(t, gl.Joint), wl.Steps, wl.Log, jointJSON(t, wl.Joint))
		}
		if LogDigest(gl.Log) != LogDigest(wl.Log) || JointLogDigest(gl.Joint) != JointLogDigest(wl.Joint) {
			t.Fatalf("%s: log digest differs from a fresh run", id)
		}
		gv, err := got.Peek(id)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.Peek(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == "m1" {
			union := relation.NewInstance()
			for _, in := range models.Fig1Inputs() {
				union.UnionWith(in)
			}
			if !gv.Past.Equal(union) {
				t.Fatalf("m1: past %s, want the union of its inputs %s", gv.Past, union)
			}
			continue
		}
		if len(gv.Nodes) != len(wv.Nodes) {
			t.Fatalf("n1: %d node views, want %d", len(gv.Nodes), len(wv.Nodes))
		}
		for name, node := range wv.Nodes {
			if !gv.Nodes[name].Past.Equal(node.Past) {
				t.Fatalf("n1 node %s: past %s, want %s", name, gv.Nodes[name].Past, node.Past)
			}
		}
	}
}

// TestParentFormatShipImagesInstall: a ship image in the parent's format —
// inputs, no past — still installs, digest verified, as the session it was.
func TestParentFormatShipImagesInstall(t *testing.T) {
	want := compatOracle(t)
	got := memEngine(t, 1)
	for _, id := range []string{"m1", "n1"} {
		image, err := os.ReadFile(filepath.Join("testdata", "parent_"+id+".ship"))
		if err != nil {
			t.Fatal(err)
		}
		se, err := DecodeStateExport(image)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := got.Install(image); err != nil || info.Steps != se.Image.Steps {
			t.Fatalf("install %s: %+v, %v", id, info, err)
		}
	}
	assertSameSessions(t, got, want)
	// The dedupe table came along, and the sessions keep stepping.
	if res, err := got.InputKey("m1", "k1", relation.NewInstance()); err != nil || !res.Duplicate || res.Seq != 1 {
		t.Fatalf("keyed retry on the installed session: %+v, %v", res, err)
	}
	if res, err := got.NetInput("n1", compose.StepInputs{}); err != nil || res.Seq != 8 {
		t.Fatalf("joint step on the installed network: %+v, %v", res, err)
	}
}

// TestParentEngineDirRecovers: an engine directory the parent wrote (a
// snapshot whose images carry inputs, plus a WAL tail) recovers with every
// session's log identical, in either write codec, and keeps serving.
func TestParentEngineDirRecovers(t *testing.T) {
	want := compatOracle(t)
	for _, codec := range []string{"binary", "json"} {
		t.Run(codec, func(t *testing.T) {
			// Recovery appends to the directory, so work on a copy.
			dir, src := t.TempDir(), filepath.Join("testdata", "parent_engine_"+codec, "shard-000")
			files, err := os.ReadDir(src)
			if err != nil || os.Mkdir(filepath.Join(dir, "shard-000"), 0o755) != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(src, f.Name()))
				if err != nil || os.WriteFile(filepath.Join(dir, "shard-000", f.Name()), data, 0o644) != nil {
					t.Fatal(err)
				}
			}
			got, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("recover the parent's directory: %v", err)
			}
			assertSameSessions(t, got, want)
			if res, err := got.InputKey("m1", "k1", relation.NewInstance()); err != nil || !res.Duplicate {
				t.Fatalf("keyed retry after recovery: %+v, %v", res, err)
			}
			stepInput(t, got, "m1", "order", "time")
			// The next snapshot is written in today's format; it must read back.
			if err := got.Shutdown(); err != nil {
				t.Fatal(err)
			}
			again, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Shutdown()
			if lr, err := again.Log("m1"); err != nil || lr.Steps != 4 {
				t.Fatalf("m1 after re-snapshot: %+v, %v", lr, err)
			}
			if v, err := again.Peek("m1"); err != nil || !v.Past.Has("order", relation.Tuple{"time"}) || !v.Past.Has("pay", relation.Tuple{"time", "855"}) {
				t.Fatalf("m1 past after re-snapshot: %+v, %v", v, err)
			}
		})
	}
}
