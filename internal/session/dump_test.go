package session

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
)

// TestDumpWAL dumps a JSON-era engine directory (the parent-format
// fixture: a JSON snapshot and JSON WAL records) after a binary engine has
// recovered it and appended to it: the dump must show the snapshot, records
// of both encodings, and the intern-table summary — and must decode every
// record.
func TestDumpWAL(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_engine_json"), dir)
	e, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range models.Fig1Inputs() {
		if _, err := e.Input("m1", in); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Shutdown so the JSON snapshot stays current and the
	// binary records stay in the WAL.

	var buf bytes.Buffer
	if err := DumpWAL(&buf, filepath.Join(dir, "shard-000")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"snapshot", "segment", " binary ", " json ", "step", "intern tables:"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNDECODABLE") {
		t.Errorf("dump failed to decode a record:\n%s", out)
	}
}

// TestDumpGoesPastAnUndecodableImage: an install record whose image's
// model no registry holds cannot be decoded, since its log is read onto a
// tape of that model's machine. The dump reports it and decodes the next
// record, which uses the intern definitions the bad one carried.
func TestDumpGoesPastAnUndecodableImage(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways, SnapshotEvery: -1}); err != nil {
		t.Fatal(err)
	}
	tape := models.Get("short").NewLogTape()
	tape.Append(step(t, fact("sendbill", "time", "855")))
	enc := codec.NewEncoder()
	var frames []byte
	for _, rec := range []*walRecord{
		{T: recInstall, SID: "gone", Image: &Image{ID: "gone", Model: "no-such-model", Mode: "all", Steps: 1, tape: tape}},
		{T: recClose, SID: "gone"},
	} {
		payload, err := encodeWALRecord(enc, rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frameFor(payload)...)
	}
	shard := filepath.Join(dir, "shard-000")
	fh, err := os.OpenFile(lastSegment(t, shard), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := DumpWAL(&buf, shard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `UNDECODABLE: snapshot: unknown model "no-such-model"`) || !strings.Contains(out, "close sid=gone") {
		t.Errorf("dump should report the install record and decode the close after it:\n%s", out)
	}
}
