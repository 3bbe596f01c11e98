package storage

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// File layout inside a store directory:
//
//	MANIFEST            JSON {"version":1,"snapshot":"snap-…","segstart":N}
//	seg-0000000000.wal  WAL segments, replayed in sequence order
//	snap-0000000004.snap  the committed snapshot (at most one survives)
//
// The manifest is the commit point: it names the snapshot (if any) and the
// first segment whose records post-date it. A snapshot and the segment
// created alongside it share a sequence number S — the snapshot covers
// exactly the records of segments < S. If the manifest is missing it is
// reconstructed from the directory: the highest completely-renamed
// snapshot wins, because snapshot rename always precedes the manifest
// flip and post-snapshot records only ever land in segments >= its
// sequence number.
const manifestName = "MANIFEST"

type manifest struct {
	Version  int    `json:"version"`
	Snapshot string `json:"snapshot,omitempty"`
	SegStart int    `json:"segstart"`
	// Base is the LSN covered by the snapshot: records 1..Base are folded
	// into it and no longer exist as WAL frames. The first live WAL record
	// has LSN Base+1. Reconstructing a lost manifest resets Base to zero,
	// which breaks LSN continuity for any replication follower — see the
	// warning on Open.
	Base int64 `json:"base,omitempty"`
}

func segName(seq int) string  { return fmt.Sprintf("seg-%010d.wal", seq) }
func snapName(seq int) string { return fmt.Sprintf("snap-%010d.snap", seq) }

func parseSeq(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Store owns one directory of segments, snapshots, and their manifest.
// It is single-owner: after Open and Recover, exactly one goroutine may
// call Append/Commit/Sync/BeginSnapshot/Close.
type Store struct {
	dir  string
	opts Options
	man  manifest
	// epoch names this opening of the directory to replication readers: a
	// random nonzero value drawn by Open and never persisted, so a reader's
	// position from before a restart or a rebuild never matches (see
	// ReadPos).
	epoch uint64

	active     *os.File
	activeSeq  int
	activeSize int64 // bytes written to the active segment and buffered for it

	// buf holds the records Append framed and nothing has written yet. It
	// is written to the active segment in one write at each point that
	// needs the records in the file — Commit, Sync, rotation, Close — or
	// when it passes flushBytes, so a group commit is one write. werr is
	// the error of a failed write: the records that write held may be
	// torn, so every later write, commit and sync fails with it and
	// nothing is published again.
	buf  []byte
	werr error

	dirty    bool
	lastSync time.Time
	appends  int64
	syncs    int64

	// lsn is the log sequence number of the last appended record, counted
	// over the store's whole history (snapshot-covered records included):
	// record k ever appended has LSN k, so lsn = man.Base + live records.
	lsn int64
	// segFirst maps each live segment's sequence number to the LSN its
	// first record has (or will have, for a still-empty segment).
	segFirst map[int]int64

	// repl is the replication view: the only part of a Store that may be
	// read concurrently by goroutines other than the owner (see repl.go).
	repl replView

	// retain is the replication slot: the highest LSN a follower has acked,
	// set from any goroutine via SetRetain. Snapshot compaction keeps WAL
	// segments holding records beyond it (bounded by maxRetainSegments) so
	// a live stream is not forced into a snapshot reset every time the
	// primary compacts. <= 0 means no follower: compact everything.
	retain atomic.Int64
}

// SetRetain records the replication slot position: WAL records with LSN
// > lsn are still needed by a follower and survive snapshot compaction
// while the slot is within maxRetainSegments of the head. Monotonic;
// thread-safe.
func (s *Store) SetRetain(lsn int64) {
	for {
		old := s.retain.Load()
		if lsn <= old || s.retain.CompareAndSwap(old, lsn) {
			return
		}
	}
}

// Open prepares dir (creating it if needed), loads or reconstructs the
// manifest, and removes leftovers from interrupted snapshots: temp files,
// snapshots the manifest does not name, and segments older than the
// manifest's segment start. It does not read any records — call Recover.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), lastSync: time.Now(), segFirst: make(map[int]int64)}
	for s.epoch == 0 {
		s.epoch = rand.Uint64()
	}
	s.repl.notify = make(chan struct{})

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &s.man); err != nil {
			return nil, fmt.Errorf("storage: manifest corrupt in %s: %w", dir, err)
		}
		if s.man.Version != 1 {
			return nil, fmt.Errorf("storage: manifest version %d unsupported in %s", s.man.Version, dir)
		}
	case os.IsNotExist(err):
		// Reconstruct: the newest fully-renamed snapshot is authoritative
		// (see the layout comment above for why this is always safe).
		best := -1
		for _, e := range entries {
			if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && seq > best {
				best = seq
			}
		}
		s.man = manifest{Version: 1}
		if best >= 0 {
			s.man.Snapshot = snapName(best)
			s.man.SegStart = best
		}
		if err := s.commitManifest(s.man); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && e.Name() != s.man.Snapshot {
			_ = seq
			os.Remove(filepath.Join(dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok && seq < s.man.SegStart {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return s, nil
}

// Recover streams the committed snapshot (one onSnap call per record),
// then replays every live segment in sequence order (one onWAL call per
// record), truncating torn tails in place. A segment left empty by
// truncation is deleted unless it is the last one. Recovery finishes by
// opening a fresh active segment after the highest recovered one — sealed
// segments are never appended to again — and returns the number of WAL
// records replayed.
//
// Snapshot corruption is an error (the file was renamed into place only
// after a successful sync, so a short or mis-checksummed snapshot means
// real damage); WAL tails are expected to tear under crashes and are
// silently truncated, exactly like the single-file WAL before it.
func (s *Store) Recover(onSnap, onWAL func(payload []byte) error) (int, error) {
	if s.man.Snapshot != "" {
		data, err := os.ReadFile(filepath.Join(s.dir, s.man.Snapshot))
		if err != nil {
			return 0, fmt.Errorf("storage: read snapshot: %w", err)
		}
		_, off, err := readFrames(data, onSnap)
		if err != nil {
			return 0, err
		}
		if off != len(data) {
			return 0, fmt.Errorf("storage: snapshot %s corrupt at offset %d", s.man.Snapshot, off)
		}
	}

	segs, err := s.listSegments()
	if err != nil {
		return 0, err
	}
	s.lsn = s.man.Base
	replayed := 0
	for i, seq := range segs {
		path := filepath.Join(s.dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return replayed, err
		}
		s.segFirst[seq] = s.lsn + 1
		n, off, err := readFrames(data, onWAL)
		replayed += n
		s.lsn += int64(n)
		if err != nil {
			return replayed, err
		}
		if off < len(data) {
			if err := os.Truncate(path, int64(off)); err != nil {
				return replayed, err
			}
		}
		if off == 0 && i < len(segs)-1 {
			delete(s.segFirst, seq)
			if err := os.Remove(path); err != nil {
				return replayed, err
			}
		}
	}

	next := s.man.SegStart
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if err := s.openActive(next); err != nil {
		return replayed, err
	}
	s.publish()
	return replayed, nil
}

func (s *Store) listSegments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok && seq >= s.man.SegStart {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Store) openActive(seq int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.active, s.activeSeq, s.activeSize = f, seq, info.Size()
	s.segFirst[seq] = s.lsn + 1
	return syncDir(s.dir)
}

// flushBytes is the size at which Append writes its buffer out before the
// next Commit asks for it.
const flushBytes = 256 << 10

// Append frames payload for the active segment, rotating first if the
// segment is over the size threshold. It neither writes nor syncs by
// itself — the record waits in the store's buffer for Commit, which writes
// every record appended since in one write and, per policy, syncs them
// with one fsync. Returns the number of bytes the record takes in the
// segment.
func (s *Store) Append(payload []byte) (int, error) {
	if s.active == nil {
		return 0, fmt.Errorf("storage: store is closed")
	}
	if s.werr != nil {
		return 0, s.werr
	}
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	n := len(s.buf)
	s.buf = appendFrame(s.buf, payload)
	n = len(s.buf) - n
	s.activeSize += int64(n)
	s.appends++
	s.lsn++
	s.dirty = true
	if len(s.buf) >= flushBytes {
		if err := s.flush(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// flush writes the buffered records to the active segment. A failed write
// sticks (see werr).
func (s *Store) flush() error {
	if s.werr != nil {
		return s.werr
	}
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.active.Write(s.buf); err != nil {
		s.werr = err
		return err
	}
	if cap(s.buf) > 2*flushBytes {
		s.buf = nil // an outsized record passed through: let it go
	} else {
		s.buf = s.buf[:0]
	}
	return nil
}

// AlignAppend surfaces the segment identity of the next Append: it rotates
// first if the active segment is over the size threshold (exactly as Append
// itself would) and returns the sequence number of the segment the next
// record will land in. A caller keeping per-segment encoder state calls
// this before encoding, so a record is never encoded against one segment's
// intern table and framed into another.
func (s *Store) AlignAppend() (int, error) {
	if s.active == nil {
		return 0, fmt.Errorf("storage: store is closed")
	}
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	return s.activeSeq, nil
}

// rotate seals the active segment and opens the next one.
func (s *Store) rotate() error {
	if err := s.seal(); err != nil {
		return err
	}
	return s.openActive(s.activeSeq + 1)
}

// seal writes out, syncs and closes the active segment, so a sealed
// segment can never tear.
func (s *Store) seal() error {
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return s.active.Close()
}

// Commit writes the records appended since the last commit to the active
// segment, in one write, and makes them durable according to the store's
// fsync policy, reporting whether an fsync actually ran. Under FsyncAlways
// this is the group-commit point: however many appends preceded it share
// the one write and the one sync. Commit is also the ack point, so a
// successful Commit publishes the appended records to the replication view
// whether or not this particular call synced: a record is streamable
// exactly when it is ackable, which makes a follower never more
// durable-looking than the primary's own ack contract. A Commit whose write
// or sync fails acks nothing and therefore publishes nothing.
func (s *Store) Commit() (bool, error) {
	if !s.dirty {
		return false, nil
	}
	switch s.opts.Fsync {
	case FsyncAlways:
		return true, s.Sync()
	case FsyncInterval:
		if time.Since(s.lastSync) >= s.opts.FsyncInterval {
			return true, s.Sync()
		}
	}
	if err := s.flush(); err != nil {
		return false, err
	}
	s.publish()
	return false, nil
}

// Sync unconditionally writes out and syncs the active segment if it has
// unsynced appends, regardless of policy.
func (s *Store) Sync() error {
	if !s.dirty || s.active == nil {
		return nil
	}
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.dirty = false
	s.lastSync = time.Now()
	s.syncs++
	s.publish()
	return nil
}

// Appends returns the number of records appended over the store's
// lifetime (not persisted; resets on Open).
func (s *Store) Appends() int64 { return s.appends }

// Syncs returns the number of fsyncs issued on the active segment.
func (s *Store) Syncs() int64 { return s.syncs }

// Segments returns the number of live WAL segments including the active
// one.
func (s *Store) Segments() int {
	if s.active == nil {
		return 0
	}
	return s.activeSeq - s.man.SegStart + 1
}

// Close writes out, syncs and closes the active segment. Best-effort
// durability on graceful shutdown regardless of policy.
func (s *Store) Close() error {
	if s.active == nil {
		return nil
	}
	err := s.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}

func (s *Store) commitManifest(m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.man = m
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is advisory on some filesystems; a failure there
	// does not invalidate already-synced file contents.
	_ = d.Sync()
	return nil
}
