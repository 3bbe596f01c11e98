package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openStore opens a store with small segments so rotation is easy to hit.
func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// recoverAll replays a directory and returns the snapshot records and WAL
// records as strings.
func recoverAll(t *testing.T, dir string, opts Options) (*Store, []string, []string) {
	t.Helper()
	s := openStore(t, dir, opts)
	var snaps, wals []string
	n, err := s.Recover(
		func(p []byte) error { snaps = append(snaps, string(p)); return nil },
		func(p []byte) error { wals = append(wals, string(p)); return nil },
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != len(wals) {
		t.Fatalf("Recover reported %d records, callback saw %d", n, len(wals))
	}
	return s, snaps, wals
}

func appendAll(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if _, err := s.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "r1", "r2", "r3")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, snaps, wals := recoverAll(t, dir, Options{})
	if len(snaps) != 0 {
		t.Fatalf("unexpected snapshot records: %v", snaps)
	}
	if got := fmt.Sprint(wals); got != "[r1 r2 r3]" {
		t.Fatalf("replayed %v", wals)
	}
}

func mustRecoverEmpty(s *Store) (int, int, error) {
	n, err := s.Recover(
		func([]byte) error { return fmt.Errorf("unexpected snapshot record") },
		func([]byte) error { return fmt.Errorf("unexpected wal record") },
	)
	return n, 0, err
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every record after the first in a segment triggers
	// rotation, so 10 records spread over several segments.
	s := openStore(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 16})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 10; i++ {
		r := fmt.Sprintf("record-%02d", i)
		want = append(want, r)
		appendAll(t, s, r)
	}
	if s.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", s.Segments())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(wals) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", wals, want)
	}
}

func TestTornTailFinalSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "keep-1", "keep-2", "torn")
	s.Close()

	chopTail(t, filepath.Join(dir, segName(0)), 3)

	s2, _, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(wals) != "[keep-1 keep-2]" {
		t.Fatalf("replayed %v", wals)
	}
	// The store must keep accepting appends after truncation, into a
	// fresh segment (sealed segments are never appended to again).
	appendAll(t, s2, "after-crash")
	s2.Close()

	_, _, wals = recoverAll(t, dir, Options{})
	if fmt.Sprint(wals) != "[keep-1 keep-2 after-crash]" {
		t.Fatalf("after re-append, replayed %v", wals)
	}
}

func TestTornTailNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1 rotates before every append after the first, so each
	// record lands in its own segment; then an empty active segment is
	// created by a clean recover, making seg-2 non-final.
	appendAll(t, s, "seg0-rec", "seg1-rec", "seg2-torn")
	s.Close()
	s2, _, _ := recoverAll(t, dir, Options{}) // creates empty active seg-3
	s2.Close()

	chopTail(t, filepath.Join(dir, segName(2)), 2)

	_, _, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(wals) != "[seg0-rec seg1-rec]" {
		t.Fatalf("replayed %v", wals)
	}
	// The torn segment was truncated to empty and removed; no stale bytes
	// can resurface on later recoveries.
	if _, err := os.Stat(filepath.Join(dir, segName(2))); !os.IsNotExist(err) {
		t.Fatalf("expected emptied non-final segment to be deleted, stat err=%v", err)
	}
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "good", "flipped", "unreachable")
	s.Close()

	// Flip one payload byte of the middle record: its CRC no longer
	// matches, so replay stops there and truncates — the following record
	// is gone too (framing cannot be trusted past a bad CRC).
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frameHeader + len("good") + frameHeader // first payload byte of "flipped"
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(wals) != "[good]" {
		t.Fatalf("replayed %v", wals)
	}
}

func TestMissingManifestReconstruction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "pre-snap-1", "pre-snap-2")
	takeSnapshot(t, s, "snapped-1", "snapped-2")
	appendAll(t, s, "post-snap")
	s.Close()

	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	_, snaps, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(snaps) != "[snapped-1 snapped-2]" {
		t.Fatalf("snapshot records %v", snaps)
	}
	if fmt.Sprint(wals) != "[post-snap]" {
		t.Fatalf("wal records %v", wals)
	}
}

func TestSnapshotBetweenSegments(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	// Records spread over segments 0..2; snapshot commits at seq 3; more
	// records land in segments >= 3.
	appendAll(t, s, "a", "b", "c")
	if s.Segments() != 3 {
		t.Fatalf("precondition: want 3 segments, got %d", s.Segments())
	}
	takeSnapshot(t, s, "state-abc")
	if s.Segments() != 1 {
		t.Fatalf("snapshot should retire old segments, got %d live", s.Segments())
	}
	appendAll(t, s, "d", "e")
	s.Close()

	// Old segments are gone from disk, not just uncounted.
	for seq := 0; seq < 3; seq++ {
		if _, err := os.Stat(filepath.Join(dir, segName(seq))); !os.IsNotExist(err) {
			t.Fatalf("segment %d should be deleted, stat err=%v", seq, err)
		}
	}

	_, snaps, wals := recoverAll(t, dir, Options{})
	if fmt.Sprint(snaps) != "[state-abc]" {
		t.Fatalf("snapshot records %v", snaps)
	}
	if fmt.Sprint(wals) != "[d e]" {
		t.Fatalf("wal records %v", wals)
	}
}

// A crash after the snapshot file renames but before the manifest flips
// must recover from the OLD snapshot and segments: the orphan snapshot is
// swept, and stale pre-snapshot segments replay as before.
func TestCrashBetweenSnapshotRenameAndManifest(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "a", "b")
	s.Close()

	// Simulate the torn commit: a fully-written snapshot file appears at
	// the next sequence number, but the manifest still points at nothing.
	sw := fakeSnapshotFile(t, dir, 2, "half-committed")
	_ = sw

	_, snaps, wals := recoverAll(t, dir, Options{})
	if len(snaps) != 0 {
		t.Fatalf("orphan snapshot must not be read, got %v", snaps)
	}
	if fmt.Sprint(wals) != "[a b]" {
		t.Fatalf("wal records %v", wals)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
		t.Fatalf("orphan snapshot should be swept, stat err=%v", err)
	}
}

func TestGroupCommitSharesSync(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	synced, err := s.Commit()
	if err != nil || !synced {
		t.Fatalf("Commit = %v, %v; want synced", synced, err)
	}
	if s.Syncs() != 1 {
		t.Fatalf("8 appends + 1 commit should cost exactly 1 sync, got %d", s.Syncs())
	}
	// A commit with nothing pending is free.
	if synced, err := s.Commit(); err != nil || synced {
		t.Fatalf("idle Commit = %v, %v; want no-op", synced, err)
	}
	s.Close()
}

func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    FsyncPolicy
		wantErr bool
	}{
		{"", FsyncAlways, false},
		{"always", FsyncAlways, false},
		{"interval", FsyncInterval, false},
		{"never", FsyncNever, false},
		{"sometimes", FsyncAlways, true},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err != nil) != tc.wantErr || (err == nil && got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if FsyncInterval.String() != "interval" || FsyncNever.String() != "never" || FsyncAlways.String() != "always" {
		t.Error("String round-trip broken")
	}

	// Never: Commit must not sync. Interval: Commit syncs only once the
	// interval elapses.
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	s.Append([]byte("x"))
	if synced, _ := s.Commit(); synced {
		t.Error("FsyncNever Commit synced")
	}
	s.Close()

	s2 := openStore(t, t.TempDir(), Options{Fsync: FsyncInterval, FsyncInterval: 10 * time.Millisecond})
	if _, _, err := mustRecoverEmpty(s2); err != nil {
		t.Fatal(err)
	}
	s2.Append([]byte("x"))
	s2.lastSync = time.Now() // pretend a sync just happened
	if synced, _ := s2.Commit(); synced {
		t.Error("FsyncInterval Commit synced before interval elapsed")
	}
	s2.lastSync = time.Now().Add(-time.Second)
	if synced, _ := s2.Commit(); !synced {
		t.Error("FsyncInterval Commit did not sync after interval elapsed")
	}
	s2.Close()
}

func TestSnapshotAbortLeavesStoreIntact(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "a", "b")
	sw, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sw.Append([]byte("half"))
	sw.Abort()
	appendAll(t, s, "c")
	s.Close()

	_, snaps, wals := recoverAll(t, dir, Options{})
	if len(snaps) != 0 || fmt.Sprint(wals) != "[a b c]" {
		t.Fatalf("snaps=%v wals=%v", snaps, wals)
	}
}

// chopTail removes the last n bytes of a file, simulating a torn write.
func chopTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func takeSnapshot(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	sw, err := s.BeginSnapshot()
	if err != nil {
		t.Fatalf("BeginSnapshot: %v", err)
	}
	for _, r := range recs {
		if err := sw.Append([]byte(r)); err != nil {
			t.Fatalf("snapshot Append: %v", err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatalf("snapshot Commit: %v", err)
	}
}

// fakeSnapshotFile writes a complete, well-framed snapshot file directly,
// bypassing the manifest — the on-disk state of a crash between rename
// and manifest flip.
func fakeSnapshotFile(t *testing.T, dir string, seq int, recs ...string) string {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, []byte(r))
	}
	path := filepath.Join(dir, snapName(seq))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
