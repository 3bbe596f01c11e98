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
// mutex-guarded replication view and an atomic, never the shard's owned
// state.
//
// Follower side: ApplyReplicated feeds one such batch through the shard
// goroutines into a standby engine — every record goes through the same
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
	// ITab is the intern-table length the follower's stream decoder must
	// hold BEFORE applying this batch's records. The follower sends its
	// table length with each poll; a mismatch on either side resets that
	// side's half of the stream, so the table resynchronizes within one
	// round trip after any divergence (lost response, follower restart).
	ITab int `json:"itab,omitempty"`
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
	// Records are consecutive committed WAL records starting at the
	// requested LSN, each one's Bin an interned codec record of this
	// shard's stream (see encodeStream).
	Records []storage.ReplRecord `json:"records,omitempty"`
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
// stale ack never regresses the gauge) and wakes the shard if it is holding
// a semi-sync commit for this LSN. Safe from any goroutine.
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

// StreamWAL returns the next batch of committed WAL records for one shard,
// starting at LSN from (1-based). With wait > 0 and nothing new to serve,
// it long-polls until a commit arrives, the wait elapses, or ctx is done —
// gating on group-commit completion by construction, because the store
// publishes an LSN only at its ack points. A from that has been compacted
// into a snapshot comes back as a Reset batch carrying the snapshot's
// records.
//
// itab states the length of the follower's stream decoder table, which the
// shard's stream encoder must match — on mismatch the encoder resets and
// the batch redefines its constants (see WALBatch.ITab).
func (e *Engine) StreamWAL(ctx context.Context, shard int, from int64, wait time.Duration, itab int) (*WALBatch, error) {
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
	recs, st, err := sh.store.ReadCommitted(from, streamMaxRecords, streamMaxBytes)
	b := &WALBatch{Shard: shard, Shards: len(e.shards), Base: st.Base, Committed: st.Committed}
	if err == storage.ErrCompacted {
		// The snapshot ships as stored: its records need no stream context
		// (the first one resets the decoder), and a reset is a stream
		// discontinuity anyway.
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
	if err := sh.encodeStream(b, recs, itab); err != nil {
		return nil, err
	}
	e.m.replBatches.Add(1)
	return b, nil
}

// encodeStream renders one batch's records for the wire. Segment payloads
// cannot ship raw: a binary record's intern references are segment-scoped,
// so the shard transcodes each record (however it was stored) into the
// follower's stream — a per-shard encoder whose table the itab handshake
// keeps aligned with the follower's decoder.
func (sh *shard) encodeStream(b *WALBatch, recs []storage.ReplRecord, itab int) error {
	sh.streamMu.Lock()
	defer sh.streamMu.Unlock()
	if sh.streamEnc == nil {
		sh.streamEnc = codec.NewEncoder()
	}
	if itab != sh.streamEnc.TableLen() {
		// The follower's decoder does not match this encoder (fresh follower,
		// lost response, competing follower): restart the stream's table.
		sh.streamEnc.Reset()
	}
	b.ITab = sh.streamEnc.TableLen()
	for i := range recs {
		rec, ok := recs[i].Rec.(*walRecord)
		if !ok {
			return fmt.Errorf("shard %d: record at lsn %d was not decoded for the stream", sh.idx, recs[i].LSN)
		}
		bin, err := encodeWALRecord(sh.streamEnc, rec)
		if err != nil {
			sh.streamEnc.Reset()
			return err
		}
		recs[i].Bin, recs[i].Payload, recs[i].Rec = bin, nil, nil
	}
	b.Records = recs
	return nil
}

// ReplDecoder is the follower's half of one primary shard's binary stream:
// it holds the intern table the primary's stream encoder builds record by
// record. One decoder per primary shard, fed every record of that stream in
// order; TableLen travels back to the primary with each poll (the itab
// handshake). Not safe for concurrent use — each tail goroutine owns one.
type ReplDecoder struct {
	dec *codec.Decoder
}

// NewReplDecoder returns an empty-table stream decoder.
func NewReplDecoder() *ReplDecoder { return &ReplDecoder{dec: codec.NewDecoder()} }

// TableLen reports the intern entries learned so far.
func (d *ReplDecoder) TableLen() int { return d.dec.TableLen() }

// Reset clears the table (after an itab mismatch).
func (d *ReplDecoder) Reset() { d.dec.Reset() }

// ApplyReplicated applies one batch of a primary's stream (what its
// StreamWAL returned for one shard) to this engine as a standby, and returns
// the highest LSN the standby now holds from it (0 when none). Records are
// decoded against d — the caller feeds batches in stream order, the decoder
// learns each record's intern definitions as a side effect. A Reset batch
// is read by the snapshot reader recovery uses (header and version check,
// then one restored session per image); the batch first retires standby
// sessions that hash to the batch's primary shard but are absent from the
// snapshot (closed while the follower was behind), then installs the
// snapshot's sessions. It is a stream discontinuity, so d restarts from an
// empty table.
func (e *Engine) ApplyReplicated(d *ReplDecoder, b *WALBatch) (int64, error) {
	if !b.Reset {
		var applied int64
		for _, r := range b.Records {
			rec, err := decodeWALPayload(d.dec, r.Bin)
			if err != nil {
				return applied, &BadInputError{Err: fmt.Errorf("replicated record: %w", err)}
			}
			if err := e.replicate(rec, nil); err != nil {
				return applied, err
			}
			applied = r.LSN
		}
		return applied, nil
	}
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
	d.Reset()
	return b.Base, nil
}

// replicate commits one record of a primary's stream on the shard owning
// its session; built is the session an install record restores to, when
// the caller has it already.
func (e *Engine) replicate(rec *walRecord, built *Session) error {
	if rec.SID == "" {
		return &BadInputError{Err: fmt.Errorf("replicated %s record has no session id", rec.T)}
	}
	_, err := e.send(e.shardFor(rec.SID), func(sh *shard) (any, error) {
		return nil, sh.commit(rec, fromPrimary, built, nil)
	})
	if err == nil {
		e.m.replApplied.Add(1)
	}
	return err
}
