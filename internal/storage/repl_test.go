package storage

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// tailAll reads every committed record from from on, following ErrCompacted
// resets through the snapshot, and returns the WAL payloads it saw plus the
// final resume LSN — a miniature of the follower's fetch loop.
func tailAll(t *testing.T, s *Store, from int64) ([]string, int64) {
	t.Helper()
	var out []string
	var pos ReadPos
	for {
		recs, st, err := s.ReadCommitted(from, pos, 1<<20, 1<<30)
		if err == ErrCompacted {
			base, err := s.SnapshotRecords(func(p []byte) error { return nil })
			if err != nil {
				t.Fatalf("SnapshotRecords: %v", err)
			}
			out = nil
			from, pos = base+1, ReadPos{}
			continue
		}
		if err != nil {
			t.Fatalf("ReadCommitted(%d): %v", from, err)
		}
		for _, r := range recs {
			pos = ReadPos{Epoch: st.Epoch, Decoded: r.LSN}
			if r.LSN < from {
				continue // the segment prefix a decoder needs
			}
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
	recs, st, err := s2.ReadCommitted(6, ReadPos{}, 10, 1<<20)
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
	if _, st, err := s.ReadCommitted(1, ReadPos{}, 10, 1<<20); err != ErrCompacted || st.Base != 3 {
		t.Fatalf("ReadCommitted(1) = st %+v err %v, want ErrCompacted base 3", st, err)
	}
	var snaps []string
	base, err := s.SnapshotRecords(func(p []byte) error { snaps = append(snaps, string(p)); return nil })
	if err != nil || base != 3 || len(snaps) != 1 || snaps[0] != "state-after-3" {
		t.Fatalf("SnapshotRecords: base=%d snaps=%v err=%v", base, snaps, err)
	}
	recs, st, err := s.ReadCommitted(base+1, ReadPos{}, 10, 1<<20)
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

// TestAppendWaitsForCommit pins the buffered write path: a record Append
// took is in neither the segment file nor the replication view until the
// group commit, which writes the whole group in one write, and under every
// policy Commit is what makes the group readable.
func TestAppendWaitsForCommit(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		s := openStore(t, t.TempDir(), Options{Fsync: policy, FsyncInterval: time.Hour})
		if _, _, err := mustRecoverEmpty(s); err != nil {
			t.Fatal(err)
		}
		appendAll(t, s, "one")
		seg := filepath.Join(s.dir, segName(s.activeSeq))
		size := func() int64 {
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			return info.Size()
		}
		committed := size()
		for _, r := range []string{"two", "three"} {
			if _, err := s.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		if got := size(); got != committed {
			t.Errorf("%v: segment grew from %d to %d bytes before Commit", policy, committed, got)
		}
		recs, st, err := s.ReadCommitted(1, ReadPos{}, 100, 1<<20)
		if err != nil || st.Committed != 1 || len(recs) != 1 {
			t.Fatalf("%v: before Commit ReadCommitted = %d records, committed %d, %v; want the 1 committed record", policy, len(recs), st.Committed, err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, want := size(), committed+2*frameHeader+int64(len("two")+len("three")); got != want {
			t.Errorf("%v: segment is %d bytes after Commit, want %d", policy, got, want)
		}
		got, _ := tailAll(t, s, 1)
		if want := []string{"one", "two", "three"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: after Commit the stream reads %q, want %q", policy, got, want)
		}
		s.Close()
	}
}

// TestFailedWritePublishesNothing is the write half of the ack contract's
// unhappy path: when the group commit's write fails — here the active
// segment is closed under the store — Commit fails, the committed LSN does
// not move, and the store refuses every later append and commit rather
// than write after a possibly torn group.
func TestFailedWritePublishesNothing(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "acked")
	if _, err := s.Append([]byte("lost")); err != nil {
		t.Fatalf("Append before the failure: %v", err)
	}
	if err := s.active.Close(); err != nil {
		t.Fatal(err)
	}
	if synced, err := s.Commit(); err == nil {
		t.Fatalf("Commit on a closed segment succeeded (synced=%v)", synced)
	}
	if st := s.ReplState(); st.Committed != 1 {
		t.Errorf("Committed = %d after a failed write, want 1", st.Committed)
	}
	if _, err := s.Append([]byte("later")); err == nil {
		t.Error("Append after a failed write succeeded")
	}
	if _, err := s.Commit(); err == nil {
		t.Error("Commit after a failed write succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Error("Sync after a failed write succeeded")
	}
	if st := s.ReplState(); st.Committed != 1 {
		t.Errorf("Committed = %d after retries, want 1", st.Committed)
	}
	if got, _ := tailAll(t, s, 1); len(got) != 1 || got[0] != "acked" {
		t.Errorf("the stream reads %q, want only the acked record", got)
	}
}

// TestReplCursorSequentialReads pins the resume-cursor fast path: a
// follower polling in small sequential batches must see exactly the same
// records as one big read, across segment rotations, with appends landing
// between polls, and after an out-of-order read invalidates the cursor; and
// a sequential poll resumes at the cursor's offset without parsing the
// segment's prefix again, so a resume costs O(batch).
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
	var pos ReadPos
	read := func(maxRecords int) []ReplRecord {
		recs, st, err := s.ReadCommitted(next, pos, maxRecords, 1<<30)
		if err != nil {
			t.Fatalf("ReadCommitted(%d): %v", next, err)
		}
		for _, r := range recs {
			if r.LSN > next {
				t.Fatalf("LSN gap at %d: got %d", next, r.LSN)
			}
			if want := rec(int(r.LSN - 1)); string(r.Payload) != want {
				t.Fatalf("LSN %d: got %s want %s", r.LSN, r.Payload, want)
			}
			pos = ReadPos{Epoch: st.Epoch, Decoded: r.LSN}
			if r.LSN == next {
				next++
			}
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

	// Rewind: a non-sequential read with no position ignores the cursor and
	// rescans from the first frame of from's segment.
	mid, _, err := s.ReadCommitted(6, ReadPos{}, 4, 1<<30)
	if err != nil || len(mid) != 4 || mid[0].LSN != 5 {
		t.Fatalf("rewind read: %v %+v, want 4 frames from the segment start at 5", err, mid)
	}
	// And sequential polling still resumes correctly after the rewind.
	next, pos = 9, ReadPos{}
	read(1000)
	if int(next) != total+1 {
		t.Fatalf("resumed tail ended at %d, want %d", next, total+1)
	}

	// O(batch): in one large segment, poll 1..5, then damage frame 1 on
	// disk. A sequential poll resumes at the cursor and never sees the
	// damage; a cold read of the same segment parses from the start and
	// stops at it.
	big := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(big); err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	for i := 0; i < 10; i++ {
		appendAll(t, big, rec(i))
	}
	first, st, err := big.ReadCommitted(1, ReadPos{}, 5, 1<<30)
	if err != nil || len(first) != 5 {
		t.Fatalf("first poll: %d frames, %v", len(first), err)
	}
	seg, err := os.OpenFile(filepath.Join(big.dir, segName(big.activeSeq)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("X"), frameHeader); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	rest, _, err := big.ReadCommitted(6, ReadPos{Epoch: st.Epoch, Decoded: 5}, 100, 1<<30)
	if err != nil || len(rest) != 5 || rest[0].LSN != 6 || string(rest[4].Payload) != rec(9) {
		t.Fatalf("sequential poll after the damage: %d frames, %v; want 6..10 from the cursor", len(rest), err)
	}
	if cold, _, err := big.ReadCommitted(6, ReadPos{}, 100, 1<<30); err != nil || len(cold) != 0 {
		t.Fatalf("cold read after the damage: %d frames, %v; want none (the scan stops at frame 1)", len(cold), err)
	}
}

// TestReplColdReadReachesFrom pins the cold start: a reader with no
// position gets the frames of from's segment from its first one, and a
// prefix longer than one batch still reaches from, because each batch
// advances the reader's position. A position from another epoch (a
// restarted or rebuilt store) counts as no position.
func TestReplColdReadReachesFrom(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 50; i++ {
		appendAll(t, s, fmt.Sprintf("cold-%02d", i))
	}
	const batch = 7
	from := int64(40)
	var pos ReadPos
	var got []string
	calls := 0
	for from <= 50 {
		if calls++; calls > 40/batch+3 {
			t.Fatalf("no progress after %d calls: position %+v", calls, pos)
		}
		recs, st, err := s.ReadCommitted(from, pos, batch, 1<<30)
		if err != nil || len(recs) == 0 {
			t.Fatalf("call %d at %+v: %d frames, %v", calls, pos, len(recs), err)
		}
		if want := pos.Decoded + 1; recs[0].LSN != want {
			t.Fatalf("call %d: batch starts at %d, want %d", calls, recs[0].LSN, want)
		}
		for _, r := range recs {
			if r.LSN >= from {
				got = append(got, string(r.Payload))
				from = r.LSN + 1
			}
		}
		pos = ReadPos{Epoch: st.Epoch, Decoded: recs[len(recs)-1].LSN}
	}
	if len(got) != 11 || got[0] != "cold-40" {
		t.Fatalf("read %v, want cold-40..cold-50", got)
	}
	if recs, _, err := s.ReadCommitted(40, ReadPos{Epoch: pos.Epoch + 1, Decoded: 39}, batch, 1<<30); err != nil || recs[0].LSN != 1 {
		t.Fatalf("foreign epoch: %+v, %v; want a cold start at 1", recs, err)
	}
}

// TestReplStreamIsSegmentBytes pins that a reader tailing from LSN 1 gets
// the segments' payloads exactly as stored: reframed, what it received is
// the segment files byte for byte.
func TestReplStreamIsSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 64})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		appendAll(t, s, fmt.Sprintf("bytes-%d-%s", i, strings.Repeat("x", i%7)))
	}
	var got []byte
	next, pos := int64(1), ReadPos{}
	for {
		recs, st, err := s.ReadCommitted(next, pos, 3, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			got = appendFrame(got, r.Payload)
		}
		next = recs[len(recs)-1].LSN + 1
		pos = ReadPos{Epoch: st.Epoch, Decoded: next - 1}
	}
	segs, err := s.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, seq := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, data...)
	}
	if len(segs) < 3 || !bytes.Equal(got, want) {
		t.Fatalf("stream of %d bytes over %d segments differs from the %d segment bytes", len(got), len(segs), len(want))
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
	recs, st, err := s.ReadCommitted(9, ReadPos{}, 100, 1<<20)
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
	if _, _, err := s.ReadCommitted(1, ReadPos{}, 10, 1<<20); err != ErrCompacted {
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
	if _, _, err := s.ReadCommitted(9, ReadPos{}, 10, 1<<20); err != ErrCompacted {
		t.Fatalf("after full ack, ReadCommitted(9) err=%v, want ErrCompacted", err)
	}
	if recs, _, err := s.ReadCommitted(14, ReadPos{}, 10, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("head read: recs=%d err=%v", len(recs), err)
	}
}

// TestReplConcurrentReaders: readers tailing one store at once, each with
// its own position, share only the resume cursor; each still reads every
// record in order while the owner appends across rotations.
func TestReplConcurrentReaders(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SegmentBytes: 96})
	if _, _, err := mustRecoverEmpty(s); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 60
	rec := func(i int64) string { return fmt.Sprintf("concurrent-%03d", i) }
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			next, pos := int64(1), ReadPos{}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for next <= total {
				if s.WaitCommitted(ctx, next-1) < next {
					t.Errorf("reader %d: stuck at %d", batch, next)
					return
				}
				recs, st, err := s.ReadCommitted(next, pos, batch, 1<<30)
				if err != nil {
					t.Errorf("reader %d at %d: %v", batch, next, err)
					return
				}
				for _, r := range recs {
					if r.LSN > next || string(r.Payload) != rec(r.LSN) {
						t.Errorf("reader %d at %d: LSN %d holds %q", batch, next, r.LSN, r.Payload)
						return
					}
					if r.LSN == next {
						next++
					}
					pos = ReadPos{Epoch: st.Epoch, Decoded: r.LSN}
				}
			}
		}(1 + r)
	}
	for i := int64(1); i <= total; i++ {
		appendAll(t, s, rec(i))
	}
	wg.Wait()
}
