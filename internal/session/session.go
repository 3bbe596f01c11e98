// Package session is the serving runtime of this reproduction: an engine
// hosting many concurrent live runs of Spocus transducers — one session per
// customer, exactly the paper's picture of a business model as a machine
// mapping a customer's input-relation sequence to outputs and a durable log
// (Section 2.1, Figures 1–2).
//
// Sessions are sharded across goroutine-owned shards by session ID, so
// steps on different sessions never contend while steps on one session are
// applied in FIFO order. Every applied event is appended to a per-shard
// write-ahead log of CRC-framed records (the interned binary codec by
// default, see codec.go) and periodically compacted into snapshots; on
// startup the engine replays snapshot + WAL, so the log — the paper's
// semantically significant object — survives crashes. Package
// core does the actual stepping; this package adds lifecycle, durability,
// concurrency, metrics, and the HTTP surface (see Handler).
package session

import (
	"fmt"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

// Session is one live run of a transducer: the paper's (database, input
// sequence) run unrolled over time, holding only the cumulative state and
// the log — outputs are returned to the client at each step and not
// retained.
type Session struct {
	id    string
	model string // registry name, "" when built from inline source
	src   string // inline program source, "" when built from the registry
	mode  core.AcceptMode
	mach  *core.Machine
	db    relation.Instance
	// run holds the cumulated state resident in the step executor's form and
	// steps on it in place (see core.Stepper); only the shard goroutine that
	// owns the session touches it. A relation.Instance of the state exists
	// only while something reads one: snapOf materializes it.
	run  *core.Stepper
	logs relation.Sequence // per-step log deltas, the durable object
	// past is the cumulated union of all absorbed inputs — for a Spocus
	// machine, the whole of the session's verification-relevant state. The
	// live verification plane reads a clone of it (see Peek). It is all the
	// session keeps of its inputs: state image + log is the session, so the
	// input sequence itself lives only in the WAL until compaction folds it
	// into a snapshot, and memory and images stay O(state + log).
	past  relation.Instance
	steps int
	// frozen marks a session mid-handoff: reads proceed, mutations fail
	// with FrozenError. Not persisted (see export.go).
	frozen bool
	// rate is the session's step-rate token bucket (see ratelimit.go).
	// In-memory policy only, never persisted.
	rate bucket
	// keys maps client idempotency keys to the 1-based step each first
	// produced. The table is persisted (keys travel in step WAL records and
	// in snapshot images), so dedupe survives recovery, handoff, and
	// promotion: a retried step is answered from the log instead of being
	// applied twice. Unbounded by design — sessions are short-lived and a
	// key costs a few dozen bytes.
	keys map[string]int

	// Acceptance bookkeeping under the three disciplines of Section 4.
	// For network sessions the flags aggregate across nodes: any node's
	// error fact breaks error-freeness, ok/accept require every node.
	errorFree  bool // no output so far contained an error fact
	okEvery    bool // every output so far contained ok
	lastAccept bool // the most recent output contained accept

	// net is set iff this is a network session (see network.go); then mach,
	// db, state, logs, and past above are unused (nil).
	net *netRun
}

// OpenRequest describes a session to open. Exactly one of Model (a name
// from internal/models' registry), Src (an inline transducer program), or
// Network (a whole transducer network, stepped jointly — see network.go)
// must be set. DB defaults to the model's demo database (registry models)
// or empty (inline programs); network nodes carry their own databases.
// Mode defaults to AcceptAll.
type OpenRequest struct {
	ID      string            `json:"id,omitempty"`
	Model   string            `json:"model,omitempty"`
	Src     string            `json:"src,omitempty"`
	Mode    string            `json:"mode,omitempty"`
	DB      relation.Instance `json:"db,omitempty"`
	Network *compose.Spec     `json:"network,omitempty"`
}

// getModel resolves a registry name to a fresh machine (nil if unknown);
// shared by open and snapshot restore.
func getModel(name string) *core.Machine { return models.Get(name) }

// newSession validates req and builds the session in its initial state
// (empty state instance, empty log). It is pure: no I/O, no registration.
func newSession(id string, req *OpenRequest) (*Session, error) {
	mode, err := core.ParseAcceptMode(req.Mode)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if req.Network != nil {
		return newNetSession(id, req, mode)
	}
	if req.Model == "" && req.Src == "" {
		return nil, fmt.Errorf("open: one of model, src, or network is required")
	}
	if req.Model != "" && req.Src != "" {
		return nil, fmt.Errorf("open: model and src are mutually exclusive")
	}
	var mach *core.Machine
	if req.Model != "" {
		if mach = getModel(req.Model); mach == nil {
			return nil, fmt.Errorf("open: unknown model %q", req.Model)
		}
	} else {
		if mach, err = core.ParseProgram(req.Src); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
	}
	db := req.DB
	if db == nil {
		if req.Model != "" {
			db = models.DefaultDB(req.Model)
		} else {
			db = relation.NewInstance()
		}
	} else {
		db = db.Clone() // decouple from the caller (and from other sessions)
	}
	run, err := mach.NewStepper(db, nil)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return &Session{
		id:        id,
		model:     req.Model,
		src:       req.Src,
		mode:      mode,
		mach:      mach,
		db:        db,
		run:       run,
		past:      relation.NewInstance(),
		errorFree: true,
		okEvery:   true,
	}, nil
}

// StepResult is what one transition returns to the client: the step's
// outputs and log delta exactly as in Figure 1, plus acceptance flags.
// Single-machine steps fill Output and Log; network joint steps fill the
// per-node Outputs and Logs maps plus the consumed Wire traffic.
type StepResult struct {
	ID     string            `json:"id"`
	Seq    int               `json:"seq"` // 1-based step number
	Output relation.Instance `json:"output"`
	Log    relation.Instance `json:"log"`
	// Network joint-step fields: every node's outputs and log delta, and
	// the unit-delay wire traffic this step consumed.
	Outputs compose.StepInputs  `json:"outputs,omitempty"`
	Logs    compose.StepInputs  `json:"logs,omitempty"`
	Wire    []compose.WireDelta `json:"wire,omitempty"`
	// Valid reports whether the run so far is valid under the session's
	// acceptance mode (for accept-at-end: whether it would be valid if it
	// ended now).
	Valid bool `json:"valid"`
	// Duplicate marks a step answered from the idempotency-key table: the
	// input was NOT applied again; Seq and the log fields describe the step
	// the key first produced. Outputs are not retained, so Output stays
	// empty on a duplicate.
	Duplicate bool `json:"duplicate,omitempty"`
}

// noteKey records that key produced step seq, lazily allocating the table.
func (s *Session) noteKey(key string, seq int) {
	if key == "" {
		return
	}
	if s.keys == nil {
		s.keys = make(map[string]int)
	}
	s.keys[key] = seq
}

// dupResult answers a deduped step from the durable log: the seq the key
// first produced, the step's log delta, and current validity. Outputs are
// not retained, so they are absent — callers retrying after an ambiguous
// failure care that the step landed, not what it printed.
func (s *Session) dupResult(seq int) *StepResult {
	res := &StepResult{ID: s.id, Seq: seq, Valid: s.valid(), Duplicate: true}
	if s.net != nil {
		if seq >= 1 && seq <= len(s.net.joint) {
			je := s.net.joint[seq-1]
			res.Logs = cloneStepInputs(je.Logs)
			res.Wire = append([]compose.WireDelta(nil), je.Wire...)
		}
	} else if seq >= 1 && seq <= len(s.logs) {
		res.Log = s.logs[seq-1] // immutable once appended, as in StepResult.Log
	}
	return res
}

// validateInput rejects unknown or wrongly-typed input relations before
// anything is logged, mirroring core.Execute's checks.
func (s *Session) validateInput(in relation.Instance) error {
	for name, rel := range in {
		a, ok := s.mach.Schema().In.Arity(name)
		if !ok {
			return fmt.Errorf("step %d: %s is not an input relation", s.steps+1, name)
		}
		if rel.Len() > 0 && rel.Arity() != a {
			return fmt.Errorf("step %d: input %s has arity %d, schema says %d", s.steps+1, name, rel.Arity(), a)
		}
	}
	return nil
}

// apply performs one validated transition: Sᵢ = σ(Iᵢ, Sᵢ₋₁, D),
// Oᵢ = ω(Iᵢ, Sᵢ₋₁, D), appends the log delta, and updates acceptance
// flags. Stepping is deterministic, which is what lets the WAL store only
// inputs, and cannot fail: a machine that exists can step.
func (s *Session) apply(in relation.Instance) *StepResult {
	out := s.run.Step(in)
	delta := s.mach.Schema().LogDelta(in, out)
	s.logs = append(s.logs, delta)
	s.past.UnionWith(in)
	s.steps++
	if out.Rel(core.ErrorRel).Len() > 0 {
		s.errorFree = false
	}
	if out.Rel(core.OKRel).Len() == 0 {
		s.okEvery = false
	}
	s.lastAccept = out.Rel(core.AcceptRel).Len() > 0
	return &StepResult{
		ID:     s.id,
		Seq:    s.steps,
		Output: out,
		Log:    delta,
		Valid:  s.valid(),
	}
}

// valid reports validity of the run so far under the session's mode.
func (s *Session) valid() bool {
	switch s.mode {
	case core.ErrorFree:
		return s.errorFree
	case core.OKEveryStep:
		return s.okEvery
	case core.AcceptAtEnd:
		return s.steps > 0 && s.lastAccept
	}
	return true
}

// Info is the client-visible description of a session.
type Info struct {
	ID    string `json:"id"`
	Model string `json:"model,omitempty"`
	Name  string `json:"transducer"`
	Mode  string `json:"mode"`
	Steps int    `json:"steps"`
	Valid bool   `json:"valid"`
	// Network session fields: Network marks the kind, Nodes lists the
	// member names in wiring order.
	Network bool     `json:"network,omitempty"`
	Nodes   []string `json:"nodes,omitempty"`
}

func (s *Session) info() *Info {
	if s.net != nil {
		return &Info{
			ID:      s.id,
			Name:    "network",
			Mode:    s.mode.String(),
			Steps:   s.steps,
			Valid:   s.valid(),
			Network: true,
			Nodes:   s.net.nw.Nodes(),
		}
	}
	return &Info{
		ID:    s.id,
		Model: s.model,
		Name:  s.mach.Name(),
		Mode:  s.mode.String(),
		Steps: s.steps,
		Valid: s.valid(),
	}
}

// LogResult is the full durable log of a session: the sequence of per-step
// log deltas of Definition 2.2 for a single machine, or the joint log
// (per-node deltas + wire traffic per step) for a network session.
//
// Log is read-only. A delta is immutable once its step is applied, so the
// sequence shares the session's own deltas — the instances already handed
// out as StepResult.Log — and a read costs the slice, not the history's
// tuples. A caller that wants to edit one clones it first.
type LogResult struct {
	ID    string            `json:"id"`
	Model string            `json:"model,omitempty"`
	Steps int               `json:"steps"`
	Log   relation.Sequence `json:"log"`
	Joint []JointLogEntry   `json:"joint,omitempty"`
}

func (s *Session) logResult() *LogResult {
	if s.net != nil {
		return &LogResult{ID: s.id, Steps: s.steps, Joint: cloneJoint(s.net.joint)}
	}
	return &LogResult{ID: s.id, Model: s.model, Steps: s.steps, Log: append(relation.Sequence(nil), s.logs...)}
}

// openRecord renders the session's creation as a WAL record.
func (s *Session) openRecord() *walRecord {
	if s.net != nil {
		return &walRecord{T: recOpen, SID: s.id, Mode: s.mode.String(), Network: s.net.spec}
	}
	return &walRecord{T: recOpen, SID: s.id, Model: s.model, Src: s.src, Mode: s.mode.String(), DB: s.db}
}
