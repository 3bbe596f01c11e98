package session

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/storage"
)

// The engine's two replication faces.
//
// Primary side: StreamWAL serves committed WAL records (and, after
// compaction, the snapshot's records) for one shard as long-pollable
// batches, and AckWAL books the follower's applied LSN so Stats can report
// lag. Both are safe from any goroutine: they touch only the store's
// mutex-guarded replication view and atomics, never the shard's lock —
// which a semi-sync leader holds while it waits for this very ack.
//
// Follower side: ApplyReplicated feeds one such batch, under the shard
// locks, into a standby engine — every record goes through the same
// commit as a local write, so it is idempotent like WAL replay and appended
// to the standby's OWN WAL, which makes a record acknowledged to the stream
// durable on the follower under its fsync policy. A record that cannot
// apply (unknown session, step gap) returns ReplGapError: the follower's cue
// to restart from the primary's snapshot.

// Batch size bounds for one stream response; both soft in the sense that a
// single over-sized record still goes through alone.
const (
	streamMaxRecords = 4096
	streamMaxBytes   = 4 << 20
)

// ErrNotDurable reports a replication operation against a memory-only
// engine: with no WAL there is nothing to stream.
var ErrNotDurable = errors.New("session: engine has no durable store to stream")

// WALBatch is one stream response for one primary shard.
type WALBatch struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"` // the primary's shard count (stream topology)
	// Reset tells the follower its requested LSN was compacted: discard its
	// notion of this shard, install the Snapshot's sessions, resume at
	// Base+1.
	Reset bool `json:"reset,omitempty"`
	// Base is the LSN covered by the primary's snapshot; Committed is the
	// highest LSN this batch could have served (records beyond the batch's
	// size bounds arrive on the next poll).
	Base      int64 `json:"base"`
	Committed int64 `json:"committed"`
	// Snapshot carries, on Reset, the primary shard's snapshot file as its
	// framed payloads, header first, byte for byte: a snapshot is a
	// self-describing stream, so the follower reads it with the reader
	// recovery uses.
	Snapshot [][]byte `json:"snapshot,omitempty"`
	// Epoch is the epoch of the primary store that served Frames; the
	// reader sends it back with the LSN it decoded last (storage.ReadPos).
	Epoch uint64 `json:"epoch,omitempty"`
	// From is the first LSN to apply: frames below it only bring the
	// reader's decoder up to it.
	From int64 `json:"from,omitempty"`
	// Frames are consecutive committed WAL frames as stored in the primary
	// shard's segments, starting where the reader's decoder can take them
	// (see storage.Store.ReadCommitted).
	Frames []storage.ReplRecord `json:"frames,omitempty"`
}

// ReplShardState summarizes one shard's stream position.
type ReplShardState struct {
	Shard     int   `json:"shard"`
	Base      int64 `json:"base"`
	Committed int64 `json:"committed"`
	Acked     int64 `json:"acked"`
}

// ReplGapError reports a record that does not continue the session table it
// is applied to. On a standby the follower must bootstrap from the
// primary's snapshot; during recovery it means the WAL is corrupt.
type ReplGapError struct {
	SID  string
	Seq  int // the record's step number (0 for a missing session)
	Have int // the table's step count
}

func (err *ReplGapError) Error() string {
	if err.Seq == 0 {
		return fmt.Sprintf("record gap: no session %s", err.SID)
	}
	return fmt.Sprintf("record gap: session %s step %d after %d", err.SID, err.Seq, err.Have)
}

// WALState reports every shard's stream position. ErrNotDurable for
// memory-only engines.
func (e *Engine) WALState() ([]ReplShardState, error) {
	out := make([]ReplShardState, 0, len(e.shards))
	for i, sh := range e.shards {
		if sh.store == nil {
			return nil, ErrNotDurable
		}
		rs := sh.store.ReplState()
		out = append(out, ReplShardState{Shard: i, Base: rs.Base, Committed: rs.Committed, Acked: sh.acked.Load()})
	}
	return out, nil
}

// AckWAL records the follower's applied LSN for one shard (monotonic: a
// stale ack never regresses the gauge) and wakes the shard's leader if it is
// holding a semi-sync commit for this LSN. Safe from any goroutine.
func (e *Engine) AckWAL(shard int, lsn int64) {
	if shard < 0 || shard >= len(e.shards) {
		return
	}
	sh := e.shards[shard]
	for {
		old := sh.acked.Load()
		if lsn <= old {
			return
		}
		if sh.acked.CompareAndSwap(old, lsn) {
			if sh.store != nil {
				// Replication slot: snapshot compaction keeps WAL the
				// follower has not acked yet, so the stream survives
				// snapshots without a reset.
				sh.store.SetRetain(lsn)
			}
			select {
			case sh.ackWake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// StreamWAL returns the next batch of committed WAL frames for one shard
// for a reader that needs LSN from (1-based) on and whose decoder stands at
// pos. With wait > 0 and nothing new to serve, it long-polls until a commit
// arrives, the wait elapses, or ctx is done — gating on group-commit
// completion by construction, because the store publishes an LSN only at
// its ack points. A from that has been compacted into a snapshot comes
// back as a Reset batch carrying the snapshot's records. Frames ship as
// stored: the primary decodes none of them, and holds no state for any
// reader.
func (e *Engine) StreamWAL(ctx context.Context, shard int, from int64, wait time.Duration, pos storage.ReadPos) (*WALBatch, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, &BadInputError{Err: fmt.Errorf("no shard %d (engine has %d)", shard, len(e.shards))}
	}
	sh := e.shards[shard]
	if sh.store == nil {
		return nil, ErrNotDurable
	}
	if from < 1 {
		from = 1
	}
	if wait > 0 {
		if st := sh.store.ReplState(); from > st.Committed && from > st.Base {
			wctx, cancel := context.WithTimeout(ctx, wait)
			sh.store.WaitCommitted(wctx, from-1)
			cancel()
		}
	}
	frames, st, err := sh.store.ReadCommitted(from, pos, streamMaxRecords, streamMaxBytes)
	b := &WALBatch{Shard: shard, Shards: len(e.shards), Base: st.Base, Committed: st.Committed}
	if err == storage.ErrCompacted {
		// The snapshot ships as stored too: its first record resets the
		// decoder, and a reset is a stream discontinuity anyway.
		base, serr := sh.store.SnapshotRecords(func(p []byte) error {
			b.Snapshot = append(b.Snapshot, p)
			return nil
		})
		if serr != nil {
			return nil, serr
		}
		b.Reset, b.Base = true, base
		if b.Committed < base {
			b.Committed = base
		}
		e.m.replBatches.Add(1)
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	b.Epoch, b.From, b.Frames = st.Epoch, from, frames
	e.m.replBatches.Add(1)
	return b, nil
}

// ReplDecoder is the follower's half of one primary shard's stream: the
// intern table the primary's WAL encoder built for the segment being read,
// and the position (storage.ReadPos) that says which frames the table has
// seen. One decoder per primary shard; Pos travels with each poll. Not safe
// for concurrent use — each tail goroutine owns one.
type ReplDecoder struct {
	dec *codec.Decoder
	pos storage.ReadPos
}

// NewReplDecoder returns a decoder that has decoded nothing.
func NewReplDecoder() *ReplDecoder { return &ReplDecoder{dec: codec.NewDecoder()} }

// Pos reports the decoder's position.
func (d *ReplDecoder) Pos() storage.ReadPos { return d.pos }

// reset forgets the table and the position: the next batch starts at the
// first frame of a segment.
func (d *ReplDecoder) reset() {
	d.dec.Reset()
	d.pos = storage.ReadPos{}
}

// decode feeds b's frames through d in order and hands apply each record at
// or above b.From. A batch that does not continue d's position starts at a
// segment's first frame, whose reset bit clears the table. Any decode or
// apply error resets d.
func (d *ReplDecoder) decode(b *WALBatch, apply func(lsn int64, rec *walRecord) error) error {
	for _, f := range b.Frames {
		rec, err := decodeWALPayload(d.dec, f.Payload)
		if err != nil {
			d.reset()
			return &BadInputError{Err: fmt.Errorf("replicated record at lsn %d: %w", f.LSN, err)}
		}
		d.pos = storage.ReadPos{Epoch: b.Epoch, Decoded: f.LSN}
		if f.LSN < b.From {
			continue
		}
		if err := apply(f.LSN, rec); err != nil {
			d.reset()
			return err
		}
	}
	return nil
}

// ApplyReplicated applies one batch of a primary's stream (what its
// StreamWAL returned for one shard) to this engine as a standby, and returns
// the highest LSN the standby now holds from it (0 when none). Frames are
// decoded by d, which the caller keeps for this primary shard across
// batches. A Reset batch is a stream discontinuity, so d forgets its
// position; the batch is read by the snapshot reader recovery uses (header
// and version check, then one restored session per image), first retires
// standby sessions that hash to the batch's primary shard but are absent
// from the snapshot (closed while the follower was behind), then installs
// the snapshot's sessions.
func (e *Engine) ApplyReplicated(d *ReplDecoder, b *WALBatch) (int64, error) {
	if !b.Reset {
		var applied int64
		err := d.decode(b, func(lsn int64, rec *walRecord) error {
			if err := e.replicate(rec, nil); err != nil {
				return err
			}
			applied = lsn
			return nil
		})
		return applied, err
	}
	d.reset()
	type install struct {
		rec   *walRecord
		built *Session
	}
	installs := make([]install, 0, len(b.Snapshot))
	keep := make(map[string]bool, len(b.Snapshot))
	snap := newSnapReader()
	for _, p := range b.Snapshot {
		img, s, err := snap.next(p)
		if err != nil {
			return 0, &BadInputError{Err: fmt.Errorf("replicated snapshot: %w", err)}
		}
		if img != nil {
			keep[img.ID] = true
			installs = append(installs, install{&walRecord{T: recInstall, SID: img.ID, Image: img}, s})
		}
	}
	infos, err := e.List()
	if err != nil {
		return 0, err
	}
	for _, info := range infos {
		if ShardOf(info.ID, b.Shards) == b.Shard && !keep[info.ID] {
			if err := e.replicate(&walRecord{T: recClose, SID: info.ID}, nil); err != nil {
				return 0, err
			}
		}
	}
	for _, in := range installs {
		if err := e.replicate(in.rec, in.built); err != nil {
			return 0, err
		}
	}
	return b.Base, nil
}

// replicate commits one record of a primary's stream on the shard owning
// its session; built is the session an install record restores to, when
// the caller has it already.
func (e *Engine) replicate(rec *walRecord, built *Session) error {
	if rec.SID == "" {
		return &BadInputError{Err: fmt.Errorf("replicated %s record has no session id", rec.T)}
	}
	_, err := e.shardFor(rec.SID).run(true, func(sh *shard) (any, error) {
		return nil, sh.commit(rec, fromPrimary, built, nil, answerNone)
	})
	if err == nil {
		e.m.replApplied.Add(1)
	}
	return err
}
