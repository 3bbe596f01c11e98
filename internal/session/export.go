package session

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/codec"
	"repro/internal/relation"
)

// Session handoff, the cluster layer's rebalancing primitive.
//
// A Spocus run's state is its cumulated inputs and its log is the
// semantically significant object (§2), so state image + log is the session:
// ExportState freezes a session and renders exactly that, under a sha-256
// digest of the log, as one self-contained binary record; Install restores
// it on another engine, recomputes the digest from the restored log and
// refuses on mismatch, and writes an install record to the target's WAL
// before the session goes live. Cost is O(state + log) on both sides,
// whatever number of steps produced it. Forget then retires the source
// copy, and Unfreeze aborts a handoff that could not complete.
//
// The freeze mark is deliberately not persisted: a crash mid-handoff
// restarts the source with the session live and unfrozen, which is safe
// because the router only retires the source copy (Forget) after the
// target has acknowledged the install.

// StateExport is the decoded form of a ship image: a session's full
// materialized state plus the digest of its log, which lets the target
// prove the installed log is the log the source acknowledged.
type StateExport struct {
	Image  *Image
	Digest string // LogDigest (JointLogDigest for a network session)
}

// LogDigest is the canonical digest of a session log: sha-256 over the
// log sequence's canonical binary encoding, which is deterministic (fresh
// intern table, sorted names and tuples). Two engines hold identical logs
// iff their digests match.
func LogDigest(logs relation.Sequence) string {
	return digest(func(enc *codec.Encoder) { enc.Sequence(logs) })
}

// digest is sha-256, in hex, over the canonical record fn encodes. A
// session's own log is digested from its tape, whose encoding is the
// sequence's byte for byte, so it equals LogDigest of the decoded log.
func digest(fn func(*codec.Encoder)) string {
	sum := sha256.Sum256(codec.Canonical(fn))
	return hex.EncodeToString(sum[:])
}

// ExportState freezes the session against further mutation and returns its
// ship image: one canonical binary codec record holding the log digest and
// the state image (see EncodeStateExport), ready to POST as an octet-stream
// body. The image is encoded once, inside the shard, and those bytes are the
// copy — they share nothing with the live session, so the caller may hold
// them across an Unfreeze. Idempotent: re-exporting a frozen session returns
// the same bytes again. Reads (Info, Log, Peek) keep working on a frozen
// session; Input and Close fail with FrozenError until Unfreeze or Forget.
func (e *Engine) ExportState(id string) ([]byte, error) {
	v, err := e.onSession(id, func(sh *shard, s *Session) (any, error) {
		s.frozen = true
		sh.m.exports.Add(1)
		img := snapOf(s)
		data, err := EncodeStateExport(&StateExport{Image: &img, Digest: s.run.digest()})
		sh.shipBytesTotal.Add(int64(len(data)))
		return data, err
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// Install materializes a shipped session on this engine from the bytes
// ExportState produced on the source: the image is restored, its log digest
// is verified against the source's, and an install record (carrying the
// full image — its inputs were logged elsewhere) is written to the WAL
// before the session goes live. Undecodable bytes and a digest mismatch
// reject the install with BadInputError; an ID this engine already serves
// with ConflictError.
func (e *Engine) Install(data []byte) (*Info, error) {
	se, err := DecodeStateExport(data)
	if err != nil {
		return nil, &BadInputError{Err: fmt.Errorf("install: %w", err)}
	}
	id := se.Image.ID
	if id == "" {
		return nil, &BadInputError{Err: fmt.Errorf("install: image has no session id")}
	}
	s, err := se.Image.restore()
	if err != nil {
		return nil, &BadInputError{Err: fmt.Errorf("install: %w", err)}
	}
	if got := s.run.digest(); got != se.Digest {
		return nil, &BadInputError{Err: fmt.Errorf("install: log digest mismatch for %s: source %s, restored %s", id, se.Digest, got)}
	}
	info, err := e.create(s, &walRecord{T: recInstall, SID: id, Image: se.Image})
	if err == nil {
		e.shardFor(id).shipBytesTotal.Add(int64(len(data)))
	}
	return info, err
}

// Unfreeze lifts a freeze set by ExportState, aborting a handoff. It is a no-op
// on a session that is not frozen.
func (e *Engine) Unfreeze(id string) error {
	_, err := e.onSession(id, func(_ *shard, s *Session) (any, error) {
		s.frozen = false
		return nil, nil
	})
	return err
}

// Forget retires a handed-off session: it is removed from the engine and a
// close record is logged so replay does not resurrect it, but no final-log
// semantics apply — the session lives on wherever its image was installed.
// Forget refuses sessions that were never frozen, so a stray call cannot
// drop live state.
func (e *Engine) Forget(id string) error {
	_, err := e.onSession(id, func(sh *shard, s *Session) (any, error) {
		if !s.frozen {
			return nil, &BadInputError{Err: fmt.Errorf("session %s: forget requires a prior export", id)}
		}
		return nil, sh.commit(&walRecord{T: recClose, SID: id}, fromAPI, nil, nil, answerNone)
	})
	return err
}

// FrozenError reports a mutation attempted on a session frozen for handoff.
// The HTTP layer maps it to 503 with Retry-After: the session is about to
// be served elsewhere, and the router will route there once the ring flips.
type FrozenError struct{ ID string }

func (err *FrozenError) Error() string {
	return fmt.Sprintf("session %s is frozen for handoff", err.ID)
}
