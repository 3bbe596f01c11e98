package storage

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"
)

// tailAll reads every committed record from from on, following ErrCompacted
// resets through the snapshot, and returns the WAL payloads it saw plus the
// final resume LSN — a miniature of the follower's fetch loop.
func tailAll(t *testing.T, s *Store, from int64) ([]string, int64) {
	t.Helper()
	var out []string
	for {
		recs, st, err := s.ReadCommitted(from, 1<<20, 1<<30)
		if err == ErrCompacted {
			base, err := s.SnapshotRecords(func(p []byte) error { return nil })
			if err != nil {
				t.Fatalf("SnapshotRecords: %v", err)
			}
			out = nil
			from = base + 1
			continue
		}
		if err != nil {
			t.Fatalf("ReadCommitted(%d): %v", from, err)
		}
		for _, r := range recs {
			if r.LSN != from {
				t.Fatalf("LSN gap: got %d want %d", r.LSN, from)
			}
			out = append(out, string(r.Payload))
			from++
		}
		if from > st.Committed {
			return out, from
		}
	}
}

func TestReplTailAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 32})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 20; i++ {
		r := fmt.Sprintf("record-%02d", i)
		want = append(want, r)
		appendAll(t, s, r)
	}
	if s.Segments() < 2 {
		t.Fatalf("expected rotation, have %d segments", s.Segments())
	}
	got, next := tailAll(t, s, 1)
	if len(got) != len(want) {
		t.Fatalf("tailed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if st := s.ReplState(); st.Committed != 20 || next != 21 {
		t.Fatalf("committed=%d next=%d, want 20/21", st.Committed, next)
	}

	// Mid-stream resume: from=7 must yield exactly records 7..20.
	mid, _ := tailAll(t, s, 7)
	if len(mid) != 14 || mid[0] != "record-06" {
		t.Fatalf("resume at 7: got %d records first=%q", len(mid), mid[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplLSNSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 48})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "a", "b", "c", "d", "e")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, wals := recoverAll(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 48})
	if len(wals) != 5 {
		t.Fatalf("recovered %d records, want 5", len(wals))
	}
	if st := s2.ReplState(); st.Committed != 5 {
		t.Fatalf("committed after recovery = %d, want 5", st.Committed)
	}
	appendAll(t, s2, "f")
	recs, st, err := s2.ReadCommitted(6, 10, 1<<20)
	if err != nil || len(recs) != 1 || string(recs[0].Payload) != "f" || st.Committed != 6 {
		t.Fatalf("post-recovery append: recs=%v st=%+v err=%v", recs, st, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "w1", "w2", "w3")

	sw, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append([]byte("state-after-3")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "w4", "w5")

	// Old LSNs are compacted; the reader must be pointed at the snapshot.
	if _, st, err := s.ReadCommitted(1, 10, 1<<20); err != ErrCompacted || st.Base != 3 {
		t.Fatalf("ReadCommitted(1) = st %+v err %v, want ErrCompacted base 3", st, err)
	}
	var snaps []string
	base, err := s.SnapshotRecords(func(p []byte) error { snaps = append(snaps, string(p)); return nil })
	if err != nil || base != 3 || len(snaps) != 1 || snaps[0] != "state-after-3" {
		t.Fatalf("SnapshotRecords: base=%d snaps=%v err=%v", base, snaps, err)
	}
	recs, st, err := s.ReadCommitted(base+1, 10, 1<<20)
	if err != nil || len(recs) != 2 || string(recs[0].Payload) != "w4" || st.Committed != 5 {
		t.Fatalf("post-snapshot tail: recs=%d st=%+v err=%v", len(recs), st, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplWaitCommitted(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "x")

	// Already satisfied: returns immediately.
	if c := s.WaitCommitted(context.Background(), 0); c != 1 {
		t.Fatalf("WaitCommitted(0) = %d, want 1", c)
	}
	// Timeout path: nothing new arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if c := s.WaitCommitted(ctx, 1); c != 1 {
		t.Fatalf("WaitCommitted(1) timed-out = %d, want 1", c)
	}
	// Wakeup path: a committed append releases the waiter. The waiter runs
	// in this goroutine after scheduling the append from another, so use a
	// small delay to make the blocking order overwhelmingly likely.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		s.Append([]byte("y"))
		s.Commit()
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if c := s.WaitCommitted(ctx2, 1); c != 2 {
		t.Fatalf("WaitCommitted(1) woke with %d, want 2", c)
	}
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCommitPublishesNothing pins the ack contract on the unhappy
// path: a group commit whose fsync fails acknowledges nothing, so it must
// not advance the committed LSN or wake a stream waiter — a follower would
// otherwise apply records the primary never acked and may not hold. A
// pipe's write end stands in for the active segment: writes succeed, Sync
// does not.
func TestFailedCommitPublishesNothing(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "acked")

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	seg := s.active
	s.active = pw
	if _, err := s.Append([]byte("lost")); err != nil {
		t.Fatalf("Append into the pipe: %v", err)
	}
	if synced, err := s.Commit(); err == nil {
		t.Fatalf("Commit on an unsyncable segment succeeded (synced=%v)", synced)
	}
	if st := s.ReplState(); st.Committed != 1 {
		t.Errorf("Committed = %d after a failed commit, want 1", st.Committed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if c := s.WaitCommitted(ctx, 1); c != 1 {
		t.Errorf("WaitCommitted(1) = %d after a failed commit, want 1", c)
	}
	pw.Close()
	s.active = seg
	s.Close()
}

// TestReplCursorSequentialReads pins the resume-cursor fast path: a
// follower polling in small sequential batches must see exactly the same
// records as one big read, across segment rotations, with appends landing
// between polls, and after an out-of-order read invalidates the cursor.
func TestReplCursorSequentialReads(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 48})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := func(i int) string { return fmt.Sprintf("cursor-record-%03d", i) }
	total := 0
	grow := func(n int) {
		for i := 0; i < n; i++ {
			appendAll(t, s, rec(total))
			total++
		}
	}
	grow(30)
	if s.Segments() < 2 {
		t.Fatalf("expected rotation, have %d segments", s.Segments())
	}

	// Sequential 3-record polls: every poll after the first hits the cursor.
	next := int64(1)
	read := func(maxRecords int) []ReplRecord {
		recs, _, err := s.ReadCommitted(next, maxRecords, 1<<30)
		if err != nil {
			t.Fatalf("ReadCommitted(%d): %v", next, err)
		}
		for _, r := range recs {
			if r.LSN != next {
				t.Fatalf("LSN gap at %d: got %d", next, r.LSN)
			}
			if want := rec(int(r.LSN - 1)); string(r.Payload) != want {
				t.Fatalf("LSN %d: got %s want %s", r.LSN, r.Payload, want)
			}
			next++
		}
		return recs
	}
	for next <= 18 {
		read(3)
	}
	grow(7) // appends between polls extend the active segment under the cursor
	for int(next) <= total {
		read(5)
	}

	// Rewind: a non-sequential from must ignore the cursor and rescan.
	mid, _, err := s.ReadCommitted(5, 4, 1<<30)
	if err != nil || len(mid) != 4 || mid[0].LSN != 5 {
		t.Fatalf("rewind read: %v %+v", err, mid)
	}
	// And sequential polling still resumes correctly after the rewind.
	next = 9
	read(1000)
	if int(next) != total+1 {
		t.Fatalf("resumed tail ended at %d, want %d", next, total+1)
	}
}

// TestReplSlotRetainsWAL pins the replication-slot rule: snapshot
// compaction keeps segments a follower has not acked, so a live stream
// reads straight through a snapshot without a reset; records below the
// slot still compact away.
func TestReplSlotRetainsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 16})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 12; i++ {
		appendAll(t, s, fmt.Sprintf("slot-%02d", i))
	}
	s.SetRetain(8) // follower acked LSN 8: records 9..12 still needed

	sw, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append([]byte("state-after-12")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "slot-13")

	// The un-acked tail survives the snapshot: the follower resumes at 9
	// and reads through to the head with no ErrCompacted reset.
	recs, st, err := s.ReadCommitted(9, 100, 1<<20)
	if err != nil || st.Base != 12 {
		t.Fatalf("ReadCommitted(9): err=%v st=%+v", err, st)
	}
	got := make([]string, len(recs))
	for i, r := range recs {
		got[i] = string(r.Payload)
	}
	want := []string{"slot-09", "slot-10", "slot-11", "slot-12", "slot-13"}
	if len(got) != len(want) {
		t.Fatalf("retained tail: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained tail[%d]: got %q want %q", i, got[i], want[i])
		}
	}

	// Acked records ahead of the slot are gone: from=1 is a real reset.
	if _, _, err := s.ReadCommitted(1, 10, 1<<20); err != ErrCompacted {
		t.Fatalf("ReadCommitted(1) err=%v, want ErrCompacted", err)
	}

	// Once the follower acks the head, the next snapshot compacts fully.
	s.SetRetain(13)
	sw, err = s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append([]byte("state-after-13")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadCommitted(9, 10, 1<<20); err != ErrCompacted {
		t.Fatalf("after full ack, ReadCommitted(9) err=%v, want ErrCompacted", err)
	}
	if recs, _, err := s.ReadCommitted(14, 10, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("head read: recs=%d err=%v", len(recs), err)
	}
}
