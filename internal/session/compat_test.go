package session

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/storage"
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

// TestStandbyBootstrapsFromParentSnapshot: a standby boots through a reset
// batch served by an engine recovered from the parent's directory. The
// batch carries the primary's snapshot file as stored — JSON-era records
// for the json fixture — and the standby reads it with the snapshot reader
// recovery uses, then tails the WAL on top.
func TestStandbyBootstrapsFromParentSnapshot(t *testing.T) {
	for _, format := range []string{"binary", "json"} {
		t.Run(format, func(t *testing.T) {
			pdir, sdir := t.TempDir(), t.TempDir()
			copyTree(t, filepath.Join("testdata", "parent_engine_"+format), pdir)
			primary, err := NewEngine(Config{Dir: pdir, Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Shutdown()
			standby, err := NewEngine(Config{Dir: sdir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer standby.Shutdown()

			b, err := primary.StreamWAL(context.Background(), 0, 1, 0, storage.ReadPos{})
			if err != nil {
				t.Fatal(err)
			}
			if !b.Reset || len(b.Snapshot) != 3 || codec.IsBinary(b.Snapshot[0]) != (format == "binary") {
				t.Fatalf("stream from lsn 1: reset=%v with %d snapshot records, want the stored %s snapshot (header + 2 images)",
					b.Reset, len(b.Snapshot), format)
			}
			ledger := map[string]*ackedRun{
				"m1": {mach: models.Short(), db: models.MagazineDB(), in: models.Fig1Inputs()},
				"n1": {spec: models.Network("marketplace"), netIn: models.NetworkScript("marketplace", "widget")},
			}
			tail := newStandbyTail(standby, 1)
			if resets := tail.pull(t, primary); resets != 1 {
				t.Fatalf("standby met %d resets, want 1", resets)
			}
			nodes := map[string]*Engine{"primary": primary, "standby": standby}
			checkInvariant(t, ledger, nodes)

			// The primary keeps stepping; the standby follows on the WAL.
			in := relation.NewInstance()
			in.Add("order", relation.Tuple{"newsweek"})
			if _, err := primary.Input("m1", in); err != nil {
				t.Fatal(err)
			}
			ledger["m1"].in = append(ledger["m1"].in, in)
			if _, err := primary.NetInput("n1", compose.StepInputs{}); err != nil {
				t.Fatal(err)
			}
			ledger["n1"].netIn = append(ledger["n1"].netIn, compose.StepInputs{})
			if resets := tail.pull(t, primary); resets != 0 {
				t.Fatalf("standby met %d resets on the WAL tail, want 0", resets)
			}
			nodes["recovered standby"] = recovered(t, sdir, 2)
			checkInvariant(t, ledger, nodes)
		})
	}
}

// TestStandbyRefusesForeignSnapshotVersion: a reset batch goes through the
// same version check as recovery.
func TestStandbyRefusesForeignSnapshotVersion(t *testing.T) {
	standby := memEngine(t, 1)
	b := &WALBatch{Reset: true, Shards: 1, Snapshot: [][]byte{encodeSnapHeaderRecord(codec.NewEncoder(), snapHeader{Version: snapVersion + 1})}}
	if _, err := standby.ApplyReplicated(NewReplDecoder(), b); err == nil || !strings.Contains(err.Error(), "snapshot version") {
		t.Fatalf("reset batch of a foreign snapshot version: %v, want a version error", err)
	}
}
