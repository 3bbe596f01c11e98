package session

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
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

// Image is one session's full durable state: what snapshots persist and
// what handoff ships between nodes. Network sessions fill Net instead of
// the machine-shaped fields (DB, State, Logs, Past).
//
// Images written before the input history was retired carry the session's
// input sequence and no past; both decoders (binary in codec.go, JSON
// below) cumulate those inputs into Past and drop them, so such an image
// restores to exactly the session it described.
type Image struct {
	ID    string            `json:"id"`
	Model string            `json:"model,omitempty"`
	Src   string            `json:"src,omitempty"`
	Mode  string            `json:"mode"`
	DB    relation.Instance `json:"db,omitempty"`
	State relation.Instance `json:"state,omitempty"`
	Logs  relation.Sequence `json:"logs,omitempty"`
	// Past is the union of every input the session absorbed (see
	// Session.past).
	Past       relation.Instance `json:"past,omitempty"`
	Steps      int               `json:"steps"`
	ErrorFree  bool              `json:"errorFree"`
	OkEvery    bool              `json:"okEvery"`
	LastAccept bool              `json:"lastAccept"`
	// Keys is the idempotency-key dedupe table (key → step seq); persisting
	// it is what makes dedupe survive compaction, handoff, and promotion.
	Keys map[string]int `json:"keys,omitempty"`
	Net  *NetImage      `json:"net,omitempty"`
}

// UnmarshalJSON reads an image in the JSON codec, accepting the legacy
// "inputs" history in place of "past" (see Image).
func (ss *Image) UnmarshalJSON(data []byte) error {
	type plain Image // sheds this method
	legacy := struct {
		*plain
		Inputs relation.Sequence `json:"inputs"`
	}{plain: (*plain)(ss)}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return err
	}
	if ss.Past == nil && legacy.Inputs != nil {
		ss.Past = cumulate(legacy.Inputs)
	}
	return nil
}

// cumulate unions an input sequence into the past it amounts to.
func cumulate(inputs relation.Sequence) relation.Instance {
	past := relation.NewInstance()
	for _, in := range inputs {
		past.UnionWith(in)
	}
	return past
}

func snapOf(s *Session) Image {
	img := Image{
		ID:         s.id,
		Mode:       s.mode.String(),
		Steps:      s.steps,
		ErrorFree:  s.errorFree,
		OkEvery:    s.okEvery,
		LastAccept: s.lastAccept,
		Keys:       s.keys,
	}
	if s.net != nil {
		img.Net = &NetImage{
			Spec:  s.net.spec,
			State: s.net.nw.ExportState(),
			Joint: s.net.joint,
			Past:  s.net.past,
		}
		return img
	}
	img.Model = s.model
	img.Src = s.src
	img.DB = s.db
	img.State = s.run.State()
	img.Logs = s.logs
	img.Past = s.past
	return img
}

// restore rebuilds a live session from its image.
func (ss *Image) restore() (*Session, error) {
	mode, err := core.ParseAcceptMode(ss.Mode)
	if err != nil {
		return nil, err
	}
	if ss.Net != nil {
		return ss.restoreNet(mode)
	}
	var mach *core.Machine
	if ss.Model != "" {
		if mach = getModel(ss.Model); mach == nil {
			return nil, fmt.Errorf("snapshot: unknown model %q", ss.Model)
		}
	} else {
		if mach, err = core.ParseProgram(ss.Src); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	db := ss.DB
	if db == nil {
		db = relation.NewInstance()
	}
	run, err := mach.NewStepper(db, ss.State)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	past := ss.Past
	if past == nil {
		past = relation.NewInstance()
	}
	return &Session{
		id:         ss.ID,
		model:      ss.Model,
		src:        ss.Src,
		mode:       mode,
		mach:       mach,
		db:         db,
		run:        run,
		logs:       ss.Logs,
		past:       past,
		steps:      ss.Steps,
		errorFree:  ss.ErrorFree,
		okEvery:    ss.OkEvery,
		lastAccept: ss.LastAccept,
		keys:       ss.Keys,
	}, nil
}

// restoreNet rebuilds a network session: the network is rebuilt from its
// spec and its run state (per-node states + unit-delay buffer) restored, so
// the next joint step continues exactly where the image left off.
func (ss *Image) restoreNet(mode core.AcceptMode) (*Session, error) {
	if ss.Net.Spec == nil {
		return nil, fmt.Errorf("snapshot: network session %s has no spec", ss.ID)
	}
	nw, err := ss.Net.Spec.Build(netResolver)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	nw.Start()
	if ss.Net.State != nil {
		if err := nw.RestoreState(ss.Net.State); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	past := ss.Net.Past
	if past == nil {
		past = make(map[string]relation.Instance)
	}
	return &Session{
		id:         ss.ID,
		mode:       mode,
		steps:      ss.Steps,
		errorFree:  ss.ErrorFree,
		okEvery:    ss.OkEvery,
		lastAccept: ss.LastAccept,
		keys:       ss.Keys,
		net: &netRun{
			spec:  ss.Net.Spec,
			nw:    nw,
			joint: ss.Net.Joint,
			past:  past,
		},
	}, nil
}
