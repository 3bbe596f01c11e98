package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Replication view: the one corner of a Store that is safe to read from
// goroutines other than the owning shard loop. The owner publishes an
// immutable view (committed LSN, snapshot base, live-segment index) at
// every ack point — Commit, Sync, snapshot commit, recovery — and readers
// work only against that view plus the segment files themselves, which is
// safe because sealed segments are immutable and the active segment's
// bytes up to the committed LSN were fully written before the publish.
// A segment deleted by a concurrent snapshot surfaces as ErrCompacted and
// the reader restarts from the snapshot.

// ErrCompacted reports that the requested LSN range has been folded into
// a snapshot and no longer exists as WAL frames; the caller must restart
// from the snapshot (SnapshotRecords) and resume at base+1.
var ErrCompacted = errors.New("storage: requested LSN compacted into snapshot")

// ReplState is a point-in-time summary of the replication view.
type ReplState struct {
	// Base is the LSN covered by the committed snapshot (0: none).
	Base int64 `json:"base"`
	// Committed is the highest LSN published at an ack point: every record
	// with LSN <= Committed may be streamed to a follower.
	Committed int64 `json:"committed"`
	// Snapshot reports whether a committed snapshot exists.
	Snapshot bool `json:"snapshot"`
	// Epoch is the store's epoch (see ReadPos).
	Epoch uint64 `json:"epoch"`
}

// ReplRecord is one streamed WAL frame: its LSN and the payload bytes
// framed into the segment, as stored.
type ReplRecord struct {
	LSN     int64  `json:"lsn"`
	Payload []byte `json:"payload"`
}

// ReadPos is where a replication reader's decoder stands: the LSN of the
// last frame it decoded and the epoch of the store that served that frame.
// Payloads are read as stored, and a payload may use intern definitions of
// earlier frames of its segment, so a reader can take a frame only right
// after the one it decoded last or at the first frame of a segment (which
// restarts the table). The zero ReadPos has decoded nothing.
type ReadPos struct {
	Epoch   uint64
	Decoded int64
}

type segRange struct {
	seq   int
	first int64 // LSN of the segment's first record
}

// replCursor remembers where the previous ReadCommitted left off, so a
// reader advancing through the feed costs O(batch) per poll instead of
// re-parsing its segment from the first frame — the stream long-poll wakes
// on every group commit, which makes the naive scan O(segment) per commit.
// The mapping from an LSN to its frame offset never changes once written
// (sealed segments are immutable, the active one is append-only), so a
// cursor can only be stale in the harmless sense of not matching the
// requested position, in which case the read falls back to a full scan.
type replCursor struct {
	next   int64 // LSN the next sequential read will start at
	seq    int   // segment holding that LSN
	offset int   // byte offset of that LSN's frame within the segment
}

type replView struct {
	mu        sync.Mutex
	committed int64
	base      int64
	snapshot  string
	segs      []segRange // sorted by first
	cursor    replCursor
	notify    chan struct{}
}

// publish snapshots the owner's LSN state into the replication view and
// wakes every WaitCommitted blocked on it. Owner-only.
func (s *Store) publish() {
	v := &s.repl
	segs := make([]segRange, 0, len(s.segFirst))
	for seq, first := range s.segFirst {
		segs = append(segs, segRange{seq: seq, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	v.mu.Lock()
	v.committed = s.lsn
	v.base = s.man.Base
	v.snapshot = s.man.Snapshot
	v.segs = segs
	close(v.notify)
	v.notify = make(chan struct{})
	v.mu.Unlock()
}

// ReplState returns the current replication view summary. Thread-safe.
func (s *Store) ReplState() ReplState {
	v := &s.repl
	v.mu.Lock()
	defer v.mu.Unlock()
	return ReplState{Base: v.base, Committed: v.committed, Snapshot: v.snapshot != "", Epoch: s.epoch}
}

// WaitCommitted blocks until the committed LSN exceeds after or the
// context is done, returning the committed LSN it observed last.
// Thread-safe; the long-poll primitive behind the stream feed.
func (s *Store) WaitCommitted(ctx context.Context, after int64) int64 {
	v := &s.repl
	for {
		v.mu.Lock()
		c, ch := v.committed, v.notify
		v.mu.Unlock()
		if c > after {
			return c
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return c
		}
	}
}

// ReadCommitted returns consecutive committed frames for a reader that
// needs every LSN from from on and whose decoder stands at pos, along with
// the view it read. The frames start where that decoder can take them: at
// pos.Decoded+1 when this store served pos and that frame lies in from's
// segment at or before from, and otherwise at the first frame of from's
// segment. Frames below from are only for the reader's decoder; since pos
// advances with every batch, a segment prefix longer than one batch still
// reaches from. The batch is bounded by maxRecords and (softly — at least
// one frame is always returned when available) maxBytes. A from whose
// segment is gone was compacted: the caller must bootstrap from the
// snapshot instead (ErrCompacted). Thread-safe.
func (s *Store) ReadCommitted(from int64, pos ReadPos, maxRecords, maxBytes int) ([]ReplRecord, ReplState, error) {
	v := &s.repl
	v.mu.Lock()
	st := ReplState{Base: v.base, Committed: v.committed, Snapshot: v.snapshot != "", Epoch: s.epoch}
	segs := v.segs
	cur := v.cursor
	v.mu.Unlock()

	if from > st.Committed {
		return nil, st, nil
	}
	// Start at the last segment whose first LSN is <= from. A from below
	// every live segment's range — even one below Base — is compacted only
	// when its frames are actually gone: the replication slot retains
	// pre-snapshot segments a follower still needs, and those serve reads
	// below the snapshot base.
	i := sort.Search(len(segs), func(k int) bool { return segs[k].first > from }) - 1
	if i < 0 {
		return nil, st, ErrCompacted
	}
	start := segs[i].first
	if pos.Epoch == s.epoch && pos.Decoded >= start && pos.Decoded < from {
		start = pos.Decoded + 1
	}
	lsn, startOff := segs[i].first-1, 0
	if cur.next == start && cur.seq == segs[i].seq {
		// Sequential poll: resume at the cached frame offset instead of
		// parsing the segment's whole prefix again.
		lsn, startOff = start-1, cur.offset
	}
	var out []ReplRecord
	bytes := 0
	endSeq, endOff := -1, 0
	for ; i < len(segs); i++ {
		data, err := os.ReadFile(filepath.Join(s.dir, segName(segs[i].seq)))
		if err != nil {
			if os.IsNotExist(err) {
				// Deleted by a concurrent snapshot commit after the view was
				// copied; the records live in the new snapshot now.
				return nil, st, ErrCompacted
			}
			return nil, st, err
		}
		off := startOff
		startOff = 0
		full := false // batch bounds hit: this segment may hold more
		for off+frameHeader <= len(data) {
			if lsn+1 > st.Committed || len(out) >= maxRecords {
				full = true
				break
			}
			length := int(binary.BigEndian.Uint32(data[off : off+4]))
			if off+frameHeader+length > len(data) {
				break // torn tail past the commit point
			}
			p := data[off+frameHeader : off+frameHeader+length]
			if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(data[off+4:off+8]) {
				break
			}
			if lsn+1 >= start && bytes > 0 && bytes+len(p) > maxBytes {
				full = true
				break
			}
			lsn++
			if lsn >= start {
				out = append(out, ReplRecord{LSN: lsn, Payload: p})
				bytes += len(p)
			}
			off += frameHeader + length
		}
		endSeq, endOff = segs[i].seq, off
		if full {
			break
		}
		if i+1 < len(segs) {
			lsn = segs[i+1].first - 1
		}
	}
	if len(out) > 0 && endSeq >= 0 {
		v.mu.Lock()
		v.cursor = replCursor{next: out[len(out)-1].LSN + 1, seq: endSeq, offset: endOff}
		v.mu.Unlock()
	}
	return out, st, nil
}

// SnapshotRecords streams the committed snapshot's records through fn and
// returns the base LSN the snapshot covers: a follower that applies these
// records holds the store's state as of LSN base and resumes the WAL feed
// at base+1. When no snapshot exists it returns base 0 without calling fn.
// Payloads are slices of a buffer read for this call, so fn may keep them.
// Thread-safe; retries once if a newer snapshot replaces the file mid-read.
func (s *Store) SnapshotRecords(fn func(payload []byte) error) (int64, error) {
	v := &s.repl
	for attempt := 0; ; attempt++ {
		v.mu.Lock()
		name, base := v.snapshot, v.base
		v.mu.Unlock()
		if name == "" {
			return base, nil
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			if os.IsNotExist(err) && attempt < 3 {
				continue // replaced by a newer snapshot; re-read the view
			}
			return base, err
		}
		if _, _, err := readFrames(data, fn); err != nil {
			return base, err
		}
		return base, nil
	}
}
