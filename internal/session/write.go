package session

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/relation"
)

// The write path. A shard's session table changes in exactly one place:
// commit applies one walRecord. Three kinds of caller hand it records — the
// engine's own entry points (which admit a request, then propose the record
// that carries it), a standby tailing a primary's stream, and recovery
// reading the shard's own log — and the only thing that differs between
// them is the record's origin. The served log is therefore the same function
// of the same records on every node that holds them.

// origin says where a record handed to commit came from.
type origin uint8

const (
	// fromWAL is the shard's own log at start-up: already durable here, so
	// nothing is appended and no counter ticks.
	fromWAL origin = iota
	// fromAPI is a record an entry point of this engine built after
	// admitting the request it carries.
	fromAPI
	// fromPrimary is a record of a primary's stream, this engine being its
	// standby: it is re-logged here before it applies, so a standby's ack is
	// as durable as a local one.
	fromPrimary
)

// admit is the admission sequence every proposed step passes — single,
// joint, or one item of a batch — in this order: the session exists; it is
// of the kind the caller addressed (net: a network session); the key has
// not produced a step already, else that step is the answer (dup); the
// session is not frozen; it is within its rate; the input fits the schema.
// With dup and err both nil the step is admitted as step s.steps+1.
func (sh *shard) admit(id, key string, net bool, in relation.Instance, ext compose.StepInputs) (s *Session, dup *StepResult, err error) {
	s, ok := sh.sessions[id]
	switch {
	case !ok:
		return nil, nil, &NotFoundError{ID: id}
	case net && s.net == nil:
		return nil, nil, &BadInputError{Err: fmt.Errorf("session %s is not a network session", id)}
	case !net && s.net != nil:
		return nil, nil, &BadInputError{Err: fmt.Errorf("session %s is a network session; address inputs per node", id)}
	}
	if key != "" {
		if seq, ok := s.keys.lookup(key); ok {
			sh.m.dedupedSteps.Add(1)
			return nil, s.dupResult(seq), nil
		}
	}
	if s.frozen {
		return nil, nil, &FrozenError{ID: id}
	}
	if sh.cfg.SessionRate > 0 {
		if ok, wait := s.rate.take(sh.cfg.SessionRate, float64(sh.cfg.SessionBurst), time.Now()); !ok {
			sh.m.rateLimited.Add(1)
			return nil, nil, &RateLimitedError{ID: id, RetryAfter: wait}
		}
	}
	if net {
		err = s.validateNetInput(ext)
	} else {
		err = s.validateInput(in)
	}
	if err != nil {
		return nil, nil, &BadInputError{Err: err}
	}
	return s, nil, nil
}

// commit applies one record to the shard's session table; nothing else
// writes that table once recovery has streamed the snapshot in. In order:
//
//   - idempotence: a record the table already covers (a snapshot taken
//     after it, a stream overlap after a reconnect, an older install) is
//     skipped, a prefix of a batch record likewise; one that does not
//     continue the table is a ReplGapError;
//   - the session an open or install record describes is built, unless the
//     caller built it already (built — entry points construct before they
//     take the shard's lock);
//   - unless the record came from this shard's own log it is appended to it,
//     before anything mutates: the enclosing group commit makes it durable
//     and only then releases the caller's acknowledgement;
//   - the mutation, with the step's kind (machine or network) decided by the
//     session it lands in — an empty joint step carries no netin field, so
//     the record's shape cannot;
//   - counters and the snapshot cadence, again unless replaying.
//
// results, when non-nil, receives the StepResult of step i of the record at
// index i. An evaluation failure is deterministic — every replay of the
// record fails identically — and surfaces as BadInputError.
func (sh *shard) commit(rec *walRecord, from origin, built *Session, results []*StepResult) error {
	s, had := sh.sessions[rec.SID]
	n, skip := 1, 0
	var err error
	switch rec.T {
	case recOpen:
		if had {
			return nil
		}
		if s = built; s == nil {
			s, err = newSession(rec.SID, &OpenRequest{Model: rec.Model, Src: rec.Src, Mode: rec.Mode, DB: rec.DB, Network: rec.Network})
		}
	case recInstall:
		if rec.Image == nil {
			return fmt.Errorf("install record for %s has no image", rec.SID)
		}
		// A session can be installed more than once over its life (handoff
		// there and back, promotion), so a log may hold several install
		// records for one ID. The furthest-along image wins.
		if had && s.steps >= rec.Image.Steps {
			return nil
		}
		if s = built; s == nil {
			s, err = rec.Image.restore()
		}
	case recClose:
		if !had {
			return nil
		}
	case recStep, recBatch:
		if rec.T == recBatch {
			n = len(rec.Inputs)
		}
		switch {
		case !had:
			return &ReplGapError{SID: rec.SID}
		case rec.Seq+n-1 <= s.steps:
			return nil
		case rec.Seq > s.steps+1:
			return &ReplGapError{SID: rec.SID, Seq: rec.Seq, Have: s.steps}
		}
		skip = s.steps + 1 - rec.Seq
	default:
		return fmt.Errorf("unknown record type %q", rec.T)
	}
	if err != nil {
		return err
	}
	tick := from != fromWAL
	if tick {
		if err = sh.appendWAL(rec); err != nil {
			return err
		}
	}

	switch rec.T {
	case recOpen, recInstall:
		sh.sessions[rec.SID] = s
		if tick && !had {
			sh.m.sessionsOpen.Add(1)
			sh.m.sessionsOpened.Add(1)
		}
		if tick && rec.T == recInstall {
			sh.m.installs.Add(1)
		}
	case recClose:
		delete(sh.sessions, rec.SID)
		if tick {
			sh.m.sessionsOpen.Add(-1)
			// Only Forget closes a frozen session: its run continues
			// wherever the image was installed.
			if s.frozen {
				sh.m.handoffs.Add(1)
			} else {
				sh.m.sessionsClosed.Add(1)
			}
		}
	default:
		for i := skip; i < n; i++ {
			in, key := rec.Input, rec.Key
			if rec.T == recBatch {
				in, key = rec.Inputs[i], ""
				if i < len(rec.Keys) {
					key = rec.Keys[i]
				}
			}
			var res *StepResult
			if s.net != nil {
				res, err = s.applyNet(rec.NetIn)
			} else {
				res = s.apply(in)
			}
			if err != nil {
				return &BadInputError{Err: err}
			}
			s.keys.note(key, res.Seq)
			if results != nil {
				results[i] = res
			}
			if tick {
				sh.m.stepsTotal.Add(1)
				sh.sinceSnap++
			}
		}
		if tick {
			return sh.maybeSnapshot(false)
		}
	}
	return nil
}

// appendWAL writes one record under the fail-stop discipline: after a write
// error the shard refuses further mutations rather than diverging from its
// log. The record is NOT synced here — the enclosing batch commits it; the
// requester's ack is held until then.
func (sh *shard) appendWAL(rec *walRecord) error {
	if sh.store == nil {
		return nil
	}
	if sh.broken != nil {
		return fmt.Errorf("shard %d wal failed: %w", sh.idx, sh.broken)
	}
	payload, err := sh.encodeWAL(rec)
	if err != nil {
		return err
	}
	n, err := sh.store.Append(payload)
	if err != nil {
		sh.broken = err
		return fmt.Errorf("shard %d wal failed: %w", sh.idx, err)
	}
	sh.m.walBytes.Add(int64(n))
	sh.walBytesTotal.Add(int64(n))
	sh.m.walAppends.Add(1)
	return nil
}

// encodeWAL renders one record, keeping the encoder's intern table aligned
// with the segment the record will land in (see the enc field).
func (sh *shard) encodeWAL(rec *walRecord) ([]byte, error) {
	seg, err := sh.store.AlignAppend()
	if err != nil {
		sh.broken = err
		return nil, fmt.Errorf("shard %d wal failed: %w", sh.idx, err)
	}
	if seg != sh.encSeg {
		sh.enc.Reset()
		sh.encSeg = seg
	}
	payload, err := encodeWALRecord(sh.enc, rec)
	if err != nil {
		// The encoder holds the failed record's pending definitions; reset
		// so the table stays honest, at the cost of re-defining constants
		// in the next record.
		sh.enc.Reset()
		sh.encSeg = -1
		return nil, err
	}
	sh.internEntries.Store(int64(sh.enc.TableLen()))
	return payload, nil
}

// maybeSnapshot compacts the WAL into a snapshot once enough steps
// accumulated, streaming one session image at a time through the store's
// snapshot writer. Committing the snapshot also seals the active segment,
// so any unsynced appends become durable as a side effect.
func (sh *shard) maybeSnapshot(force bool) error {
	if sh.store == nil || sh.broken != nil {
		return nil
	}
	if !force && (sh.cfg.SnapshotEvery == 0 || sh.sinceSnap < sh.cfg.SnapshotEvery) {
		return nil
	}
	sw, err := sh.store.BeginSnapshot()
	if err != nil {
		return err
	}
	var wrote int64
	put := func(payload []byte, err error) error {
		if err == nil {
			err = sw.Append(payload)
		}
		if err != nil {
			sw.Abort()
			return err
		}
		wrote += int64(len(payload))
		return nil
	}
	// A snapshot is its own stream: the fresh encoder's first record carries
	// the reset flag, so a decoder pointed at the file needs no context.
	senc := codec.NewEncoder()
	if err := put(encodeSnapHeaderRecord(senc, snapHeader{Version: snapVersion, Shard: sh.idx}), nil); err != nil {
		return err
	}
	ids := make([]string, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		img := snapOf(sh.sessions[id])
		if err := put(encodeImageRecord(senc, &img)); err != nil {
			return err
		}
	}
	if err := sw.Commit(); err != nil {
		sh.broken = err
		return err
	}
	sh.snapBytesTotal.Add(wrote)
	sh.m.walBytes.Store(0)
	sh.m.snapshots.Add(1)
	sh.sinceSnap = 0
	sh.refreshSegGauge()
	return nil
}
