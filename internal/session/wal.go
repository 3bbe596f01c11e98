package session

import (
	"repro/internal/compose"
	"repro/internal/relation"
	"repro/internal/storage"
)

// The WAL machinery (framing, segments, rotation, fsync policy) lives in
// internal/storage; this file defines what the session layer puts IN the
// log. FsyncPolicy is re-exported so existing callers (flags, config,
// benches) keep compiling against the session package.

// FsyncPolicy controls when the write-ahead log is flushed to stable
// storage. See storage.FsyncPolicy for the contract of each level.
type FsyncPolicy = storage.FsyncPolicy

const (
	FsyncAlways   = storage.FsyncAlways
	FsyncInterval = storage.FsyncInterval
	FsyncNever    = storage.FsyncNever
)

// ParseFsyncPolicy parses a policy name as produced by String. The empty
// string parses as FsyncAlways, the safe default.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return storage.ParseFsyncPolicy(s) }

// Record kinds appearing in the WAL.
const (
	recOpen    = "open"
	recStep    = "step"
	recBatch   = "batch" // several consecutive steps of one session, one record
	recClose   = "close"
	recInstall = "install" // a session installed whole from a shipped image
)

// walRecord is one durable event. Steps store only the input instance:
// transducer stepping is deterministic, so outputs, state, and log deltas
// are recomputed on replay rather than persisted. Install records are the
// one exception — they carry a full state image, because the inputs that
// produced it were logged on a different node.
//
// A network session's joint step is ONE record: NetIn holds the external
// inputs of every node (wired inputs are recomputed on replay), so a joint
// step is atomic in the log — it is either wholly durable or absent.
// Whether a step record is single or joint is decided by the session it
// replays into, not by the record shape (an empty joint step marshals with
// no netin field at all): commit hands the session's runner whichever input
// the record holds.
//
// A batch record (recBatch) is the same idea applied to the batched input
// API: Inputs holds the inputs of steps Seq..Seq+len(Inputs)-1 of one
// session, Keys their per-step idempotency keys ("" where absent). The
// storage layer's CRC framing makes the record all-or-nothing, so a batch
// is never torn in the log: either every step in the group is durable or
// none is. A group of exactly one step is written as an ordinary recStep —
// batch-of-1 and single-step are byte-identical on disk.
type walRecord struct {
	T       string             `json:"t"`
	SID     string             `json:"sid"`
	Model   string             `json:"model,omitempty"`   // open: registry name ("" if Src given)
	Src     string             `json:"src,omitempty"`     // open: inline transducer program
	Mode    string             `json:"mode,omitempty"`    // open: acceptance mode
	DB      relation.Instance  `json:"db,omitempty"`      // open: database instance
	Network *compose.Spec      `json:"network,omitempty"` // open: network spec (network sessions)
	Seq     int                `json:"seq,omitempty"`     // step/batch: 1-based (first) step number
	Input   relation.Instance  `json:"input,omitempty"`   // step: the input relation set
	NetIn   compose.StepInputs `json:"netin,omitempty"`   // step: per-node external inputs (network sessions)
	Key     string             `json:"key,omitempty"`     // step: client idempotency key, replayed into the dedupe table
	Inputs  relation.Sequence  `json:"inputs,omitempty"`  // batch: inputs of steps Seq..Seq+len-1
	Keys    []string           `json:"keys,omitempty"`    // batch: per-step idempotency keys ("" = none)
	Image   *Image             `json:"image,omitempty"`   // install: full session state
}
