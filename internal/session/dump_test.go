package session

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

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
