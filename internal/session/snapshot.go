package session

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/relation"
)

// Snapshots exist to bound WAL replay time. Because Spocus state is
// cumulative (a set of past-R relations) and the log is an append-only
// sequence of deltas, a session's entire identity is a handful of relation
// instances — an Image is a flat record of them, with no tree walking or
// copy-on-write machinery, and O(state + log) however many steps produced it.
//
// On disk a snapshot is a stream of framed records written through
// storage.SnapshotWriter: first a snapHeader, then one Image per session.
// Streaming keeps snapshot memory proportional to the largest session, not
// the shard.

// snapVersion guards the on-disk snapshot format. Version 2 is the framed
// stream; version 1 (single JSON document) is no longer read.
const snapVersion = 2

// snapHeader is the first record of a snapshot stream.
type snapHeader struct {
	Version int `json:"version"`
	Shard   int `json:"shard"`
}

// snapReader reads one snapshot stream, record by record, in either format:
// the one reader for recovery (the shard's own snapshot file) and for a
// standby's reset batch (the primary's snapshot file, shipped as its
// records). Each stream gets a fresh reader.
type snapReader struct {
	dec  *codec.Decoder
	seen bool // the header has been read
}

func newSnapReader() *snapReader { return &snapReader{dec: codec.NewDecoder()} }

// next reads the stream's next record. The first must be a header of the
// current version (nothing is returned for it); every later one is a
// session image, returned with the session it restores to.
func (r *snapReader) next(payload []byte) (*Image, *Session, error) {
	first := !r.seen
	r.seen = true
	h, img, err := decodeSnapPayload(r.dec, payload, first)
	switch {
	case err != nil:
		return nil, nil, err
	case first && h == nil:
		return nil, nil, fmt.Errorf("snapshot stream does not start with a header")
	case first && h.Version != snapVersion:
		return nil, nil, fmt.Errorf("snapshot version %d, want %d", h.Version, snapVersion)
	case first:
		return nil, nil, nil
	case img == nil:
		return nil, nil, fmt.Errorf("snapshot stream holds a second header")
	}
	s, err := img.restore()
	if err != nil {
		return nil, nil, err
	}
	return img, s, nil
}

// Image is one session's full durable state: what snapshots persist and
// what handoff ships between nodes. A network session's runner fills Net,
// a machine session's the machine-shaped fields (DB, the state, the log);
// the rest is the session's own.
//
// The state is held in one of two forms. snapOf, which builds the image a
// live session writes, takes a view of the stepper's resident rows
// (core.Stepper.StateView), which encodes the state without materializing
// it; the decoders, whose images restore a session, fill State.
//
// The log travels in the codec as a sequence, but an image holds it on a
// tape of its machine: snapOf shares the session's, the binary decoder
// reads the sequence straight into one, and the JSON decoders load Logs,
// the field a JSON-era record spells the log in, into one (adoptLogs).
//
// Older images also carry the session's input history, or its cumulated
// past: both are copies of what State already holds (past-R), so the
// decoders read past them — the JSON one by not knowing the fields, the
// binary one by skipping them (codec.go) — and such an image restores to
// exactly the session it described.
type Image struct {
	ID         string            `json:"id"`
	Model      string            `json:"model,omitempty"`
	Src        string            `json:"src,omitempty"`
	Mode       string            `json:"mode"`
	DB         relation.Instance `json:"db,omitempty"`
	State      relation.Instance `json:"state,omitempty"`
	Logs       relation.Sequence `json:"logs,omitempty"`
	Steps      int               `json:"steps"`
	ErrorFree  bool              `json:"errorFree"`
	OkEvery    bool              `json:"okEvery"`
	LastAccept bool              `json:"lastAccept"`
	// Keys is the idempotency-key dedupe table (key → step seq), in key
	// order; persisting it is what makes dedupe survive compaction,
	// handoff, and promotion.
	Keys keyList   `json:"keys,omitempty"`
	Net  *NetImage `json:"net,omitempty"`

	// state, when set, is the state as snapOf found it.
	state *ra.View
	// tape, when set, is the log, and mach the machine it was decoded for.
	tape *core.LogTape
	mach *core.Machine
}

// adoptLogs moves a JSON-decoded image's log onto a tape of its machine,
// refusing one the machine could not have written, as the binary decoder
// does.
func (ss *Image) adoptLogs() error {
	if ss.Logs == nil {
		return nil
	}
	mach, err := ss.machine()
	if err != nil {
		return err
	}
	tape := mach.NewLogTape()
	if err := tape.Load(ss.Logs); err != nil {
		return fmt.Errorf("image %s: %w", ss.ID, err)
	}
	ss.mach, ss.tape, ss.Logs = mach, tape, nil
	return nil
}

// machine resolves the machine the image runs: its registry model or its
// inline program.
func (ss *Image) machine() (*core.Machine, error) {
	if ss.mach != nil {
		return ss.mach, nil
	}
	if ss.Model != "" {
		if m := getModel(ss.Model); m != nil {
			return m, nil
		}
		return nil, fmt.Errorf("snapshot: unknown model %q", ss.Model)
	}
	m, err := core.ParseProgram(ss.Src)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, nil
}

func snapOf(s *Session) Image {
	img := Image{
		ID:         s.id,
		Mode:       s.mode.String(),
		Steps:      s.steps,
		ErrorFree:  s.errorFree,
		OkEvery:    s.okEvery,
		LastAccept: s.lastAccept,
		Keys:       s.keys.settle(),
	}
	s.run.image(&img)
	return img
}

func (r *machineRun) image(img *Image) {
	img.Model, img.Src, img.DB = r.model, r.src, r.db.inst
	img.state = r.stepper.StateView()
	if r.tape.Len() > 0 {
		img.tape = r.tape.View()
	}
}

// restore rebuilds a live session from its image.
func (ss *Image) restore() (*Session, error) {
	mode, err := core.ParseAcceptMode(ss.Mode)
	if err != nil {
		return nil, err
	}
	var run runner
	if ss.Net != nil {
		run, err = ss.Net.restore()
	} else {
		run, err = ss.restoreMachine()
	}
	if err != nil {
		return nil, err
	}
	return &Session{
		id:         ss.ID,
		mode:       mode,
		run:        run,
		steps:      ss.Steps,
		errorFree:  ss.ErrorFree,
		okEvery:    ss.OkEvery,
		lastAccept: ss.LastAccept,
		keys:       keyTable{settled: ss.Keys},
	}, nil
}

// restoreMachine rebuilds the run of a machine session's image.
func (ss *Image) restoreMachine() (*machineRun, error) {
	mach, err := ss.machine()
	if err != nil {
		return nil, err
	}
	tape := mach.NewLogTape()
	if ss.tape != nil {
		tape = ss.tape.View()
	}
	shared := shareDB(ss.DB)
	stepper, err := mach.NewStepper(shared.inst, ss.State)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &machineRun{model: ss.Model, src: ss.Src, mach: mach, db: shared, stepper: stepper, tape: tape}, nil
}
