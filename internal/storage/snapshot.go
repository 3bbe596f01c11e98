package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SnapshotWriter streams one snapshot: records are appended one at a time
// (each CRC-framed, same framing as the WAL) into a temp file, and nothing
// is visible to recovery until Commit renames it into place and flips the
// manifest. The write path never holds more than one record in memory, so
// snapshotting a shard with months of log does not balloon the heap the
// way a single json.Marshal of every session did.
type SnapshotWriter struct {
	s    *Store
	seq  int
	tmp  string
	f    *os.File
	w    *bufio.Writer
	buf  []byte // the record being framed
	done bool
}

// BeginSnapshot starts a snapshot covering every record appended so far.
// The snapshot takes the sequence number one past the active segment;
// committing it makes that the first live segment. Between BeginSnapshot
// and Commit the owner must not Append (single-owner discipline — the
// engine snapshots from inside the shard loop, where this holds by
// construction).
func (s *Store) BeginSnapshot() (*SnapshotWriter, error) {
	if s.active == nil {
		return nil, fmt.Errorf("storage: store is closed")
	}
	seq := s.activeSeq + 1
	tmp := filepath.Join(s.dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &SnapshotWriter{s: s, seq: seq, tmp: tmp, f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Append frames one record into the pending snapshot.
func (sw *SnapshotWriter) Append(payload []byte) error {
	if sw.done {
		return fmt.Errorf("storage: snapshot writer already finished")
	}
	sw.buf = appendFrame(sw.buf[:0], payload)
	_, err := sw.w.Write(sw.buf)
	return err
}

// Commit publishes the snapshot. Ordering is what makes every crash point
// recoverable:
//
//  1. flush + fsync + rename the temp file to its final snapshot name
//     (an incomplete snapshot can never carry the final name);
//  2. seal the active segment and open the next one at the snapshot's
//     sequence number (post-snapshot records land only in segments >= it);
//  3. flip the manifest — the commit point;
//  4. only then delete the superseded segments and old snapshot.
//
// A crash before 3 recovers from the old snapshot + old segments (Open
// deletes the orphan new snapshot); a crash after 3 recovers from the new
// snapshot, with Open sweeping whatever step 4 did not get to.
func (sw *SnapshotWriter) Commit() error {
	if sw.done {
		return fmt.Errorf("storage: snapshot writer already finished")
	}
	sw.done = true
	s := sw.s

	if err := sw.w.Flush(); err != nil {
		sw.discard()
		return err
	}
	if err := sw.f.Sync(); err != nil {
		sw.discard()
		return err
	}
	if err := sw.f.Close(); err != nil {
		os.Remove(sw.tmp)
		return err
	}
	final := snapName(sw.seq)
	if err := os.Rename(sw.tmp, filepath.Join(s.dir, final)); err != nil {
		os.Remove(sw.tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	oldSnap := s.man.Snapshot
	if err := s.rotateTo(sw.seq); err != nil {
		return err
	}
	// Between BeginSnapshot and here the owner appended nothing, so s.lsn
	// is exactly the LSN the snapshot covers: it becomes the new base.
	if err := s.commitManifest(manifest{Version: 1, Snapshot: final, SegStart: sw.seq, Base: s.lsn}); err != nil {
		return err
	}
	// Replication slot: segments holding records a follower has not acked
	// yet survive compaction (they keep serving the stream, so a live
	// follower never resets just because the primary snapshotted), bounded
	// by maxRetainSegments so a dead follower cannot pin disk forever — one
	// that far behind bootstraps from the snapshot instead. Retained
	// segments are a live-process courtesy only: the manifest's SegStart
	// does not cover them, so a restart sweeps them and followers reset.
	type oldSeg struct {
		seq   int
		first int64
	}
	var olds []oldSeg
	for seq, first := range s.segFirst {
		if seq < sw.seq {
			olds = append(olds, oldSeg{seq, first})
		}
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].seq < olds[j].seq })
	cut := len(olds)
	if retain := s.retain.Load(); retain > 0 {
		for k := range olds {
			last := s.lsn
			if k+1 < len(olds) {
				last = olds[k+1].first - 1
			}
			if last > retain {
				cut = k
				break
			}
		}
		if len(olds)-cut > maxRetainSegments {
			cut = len(olds) - maxRetainSegments
		}
	}
	for k := 0; k < cut; k++ {
		delete(s.segFirst, olds[k].seq)
	}
	s.publish()

	for k := 0; k < cut; k++ {
		os.Remove(filepath.Join(s.dir, segName(olds[k].seq)))
	}
	if oldSnap != "" && oldSnap != final {
		os.Remove(filepath.Join(s.dir, oldSnap))
	}
	return nil
}

// maxRetainSegments bounds how many pre-snapshot segments the replication
// slot may keep alive. Beyond this the follower is better served by a
// snapshot bootstrap than by replaying a long WAL tail.
const maxRetainSegments = 4

// Abort discards the pending snapshot, leaving the store exactly as it
// was.
func (sw *SnapshotWriter) Abort() {
	if sw.done {
		return
	}
	sw.done = true
	sw.discard()
}

func (sw *SnapshotWriter) discard() {
	sw.f.Close()
	os.Remove(sw.tmp)
}

// rotateTo seals the active segment (see seal) and opens a fresh one at
// exactly seq.
func (s *Store) rotateTo(seq int) error {
	if err := s.seal(); err != nil {
		return err
	}
	return s.openActive(seq)
}
