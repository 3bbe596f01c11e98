// Package session is the serving runtime of this reproduction: an engine
// hosting many concurrent live runs of Spocus transducers — one session per
// customer, exactly the paper's picture of a business model as a machine
// mapping a customer's input-relation sequence to outputs and a durable log
// (Section 2.1, Figures 1–2).
//
// Sessions are sharded by session ID across shards, each a lock its callers
// run their requests under, so steps on different shards never contend
// while steps on one session apply one at a time. Every applied event is appended to a per-shard
// write-ahead log of CRC-framed records (the interned binary codec by
// default, see codec.go) and periodically compacted into snapshots; on
// startup the engine replays snapshot + WAL, so the log — the paper's
// semantically significant object — survives crashes. Package
// core does the actual stepping; this package adds lifecycle, durability,
// concurrency, metrics, and the HTTP surface (see Handler).
package session

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/relation"
)

// Session is one live run of a transducer: the paper's (database, input
// sequence) run unrolled over time, holding only the cumulative state and
// the log — outputs are returned to the client at each step and not
// retained. What it runs is one runner: a single machine (machineRun) or a
// network of machines stepped jointly (netRun, see network.go), which the
// paper's §5 composes into one transducer. The session keeps what either
// kind has — identity, mode, step count, acceptance flags, freeze mark,
// rate bucket, dedupe table — and asks its runner for the rest.
type Session struct {
	id   string
	mode core.AcceptMode
	// run holds the cumulated state and the log; only the holder of the
	// lock of the shard that owns the session touches it.
	run   runner
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
	keys keyTable

	// Acceptance bookkeeping under the three disciplines of Section 4.
	// For network sessions the flags aggregate across nodes: any node's
	// error fact breaks error-freeness, ok/accept require every node.
	errorFree  bool // no output so far contained an error fact
	okEvery    bool // every output so far contained ok
	lastAccept bool // the most recent output contained accept
}

// runner is what a session asks of what it runs. The fill methods write
// the runner's part of a dedupe answer (logStep: step i, 0-based), a Log
// read, a Peek view, an image (sharing the log as it is now), the open
// record and the Info.
type runner interface {
	// check admits the input of step seq: it must be of the runner's kind
	// (a relation.Instance for a machine, compose.StepInputs for a network)
	// and fit its schema.
	check(id string, seq int, input any) error
	// step applies one admitted input, appends the step to the log, fills
	// the result's output and log fields, and reports whether the output
	// held an error fact, ok and accept (for a network: any node's error,
	// every node's ok and accept). Stepping is deterministic, which is what
	// lets the WAL store only inputs, and cannot fail.
	step(input any, res *StepResult) (errFact, ok, accept bool)
	// digest is the canonical digest of the log (LogDigest, JointLogDigest).
	digest() string
	logStep(i int, res *StepResult)
	readLog(lr *LogResult)
	view(v *View)
	image(img *Image)
	open(rec *walRecord)
	describe(inf *Info)
}

// machineRun is a session's run of one machine.
type machineRun struct {
	model string // registry name, "" when built from inline source
	src   string // inline program source, "" when built from the registry
	// mach is the machine, shared with every session of the same registry
	// model (see getModel); an inline program's session parses its own.
	mach *core.Machine
	// db is the session's database, fixed at open and shared with every
	// session of the same facts (see shareDB): nothing writes it, so the
	// stepper reads it in place and Peek shares it with verification.
	db *sharedDB
	// stepper holds the cumulated state resident in the step executor's form
	// and steps on it in place (see core.Stepper). A relation.Instance of the
	// state exists only while a verification read holds one (Peek
	// materializes it); images encode the resident rows (snapOf). It is
	// the one copy of what the session keeps of its inputs — for a Spocus
	// machine the state is the cumulated input itself (past-R) — so the
	// input sequence lives only in the WAL until compaction folds it into a
	// snapshot, and memory and images stay O(state + log).
	stepper *core.Stepper
	// tape is the log, the durable object: every step's delta, appended by
	// step and held flat (see core.LogTape), so a session's history costs
	// the collector nothing to mark. decoded is the prefix of the log a Log
	// or Close read has decoded into instances, kept so the next read
	// decodes only the steps past it. A session whose log is never read
	// keeps none.
	tape    *core.LogTape
	decoded relation.Sequence
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

// newSession validates req and builds the session in its initial state
// (empty state instance, empty log). It is pure: no I/O, no registration.
func newSession(id string, req *OpenRequest) (*Session, error) {
	mode, err := core.ParseAcceptMode(req.Mode)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	var run runner
	if req.Network != nil {
		run, err = newNetRun(req)
	} else {
		run, err = newMachineRun(req)
	}
	if err != nil {
		return nil, err
	}
	return &Session{id: id, mode: mode, run: run, errorFree: true, okEvery: true}, nil
}

// newMachineRun builds the run of the one machine req names.
func newMachineRun(req *OpenRequest) (*machineRun, error) {
	if req.Model == "" && req.Src == "" {
		return nil, fmt.Errorf("open: one of model, src, or network is required")
	}
	if req.Model != "" && req.Src != "" {
		return nil, fmt.Errorf("open: model and src are mutually exclusive")
	}
	var mach *core.Machine
	var db *sharedDB
	if req.Model != "" {
		r := lookupModel(req.Model)
		if r == nil {
			return nil, fmt.Errorf("open: unknown model %q", req.Model)
		}
		mach, db = r.mach, r.db
	} else {
		var err error
		if mach, err = core.ParseProgram(req.Src); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
	}
	switch {
	case req.DB != nil:
		db = shareDB(req.DB)
	case db == nil:
		db = shareDB(nil)
	}
	stepper, err := mach.NewStepper(db.inst, nil)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return &machineRun{model: req.Model, src: req.Src, mach: mach, db: db, stepper: stepper, tape: mach.NewLogTape()}, nil
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

// dupResult answers a deduped step from the durable log: the seq the key
// first produced, the step's log, and current validity. Outputs are not
// retained, so they are absent — callers retrying after an ambiguous
// failure care that the step landed, not what it printed.
func (s *Session) dupResult(seq int) *StepResult {
	res := &StepResult{ID: s.id, Seq: seq, Valid: s.valid(), Duplicate: true}
	if seq >= 1 {
		s.run.logStep(seq-1, res)
	}
	return res
}

// apply performs one validated transition — for a machine Sᵢ = σ(Iᵢ,
// Sᵢ₋₁, D), Oᵢ = ω(Iᵢ, Sᵢ₋₁, D) — appends it to the log, and updates the
// acceptance flags. The log fields of the result go to the caller; the
// session keeps only the log's own copy of them.
func (s *Session) apply(input any) *StepResult {
	res := &StepResult{ID: s.id}
	errFact, ok, accept := s.run.step(input, res)
	s.steps++
	if errFact {
		s.errorFree = false
	}
	if !ok {
		s.okEvery = false
	}
	s.lastAccept = accept
	res.Seq, res.Valid = s.steps, s.valid()
	return res
}

func (r *machineRun) check(id string, seq int, input any) error {
	in, ok := input.(relation.Instance)
	if !ok {
		return fmt.Errorf("session %s is not a network session", id)
	}
	if e := r.mach.Schema().CheckInput(in); e != nil {
		return fmt.Errorf("step %d: %w", seq, e)
	}
	return nil
}

func (r *machineRun) step(input any, res *StepResult) (errFact, ok, accept bool) {
	in, _ := input.(relation.Instance)
	out := r.stepper.Step(in)
	delta := r.mach.Schema().LogDelta(in, out)
	r.tape.Append(delta)
	res.Output, res.Log = out, delta
	return out.Rel(core.ErrorRel).Len() > 0, out.Rel(core.OKRel).Len() > 0, out.Rel(core.AcceptRel).Len() > 0
}

// logStep answers from the decoded prefix if a read has decoded the step,
// else decodes it from the tape alone.
func (r *machineRun) logStep(i int, res *StepResult) {
	if i < len(r.decoded) {
		res.Log = r.decoded[i]
	} else if i < r.tape.Len() {
		res.Log = r.tape.Delta(i)
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
	inf := &Info{ID: s.id, Mode: s.mode.String(), Steps: s.steps, Valid: s.valid()}
	s.run.describe(inf)
	return inf
}

func (r *machineRun) describe(inf *Info) { inf.Model, inf.Name = r.model, r.mach.Name() }

// LogResult is the full durable log of a session: the sequence of per-step
// log deltas of Definition 2.2 for a single machine, or the joint log
// (per-node deltas + wire traffic per step) for a network session.
//
// Log is read-only. Its instances are the session's decoded prefix (see
// machineRun.tape), shared with every earlier and later read — each read
// decodes only the steps taken since the last one. A caller that wants to
// edit one clones it first. Joint is decoded afresh from the flat joint
// log for each read, and is the caller's own.
type LogResult struct {
	ID    string            `json:"id"`
	Model string            `json:"model,omitempty"`
	Steps int               `json:"steps"`
	Log   relation.Sequence `json:"log"`
	Joint []JointLogEntry   `json:"joint,omitempty"`
}

func (s *Session) logResult() *LogResult {
	lr := &LogResult{ID: s.id, Steps: s.steps}
	s.run.readLog(lr)
	return lr
}

func (r *machineRun) readLog(lr *LogResult) {
	lr.Model, lr.Log = r.model, append(relation.Sequence(nil), r.log()...)
}

// log returns the whole log as instances, decoding the steps the run does
// not keep as instances yet. The slice is the run's own and is only ever
// extended, never rewritten.
func (r *machineRun) log() relation.Sequence {
	r.decoded = r.tape.Extend(r.decoded)
	return r.decoded
}

func (r *machineRun) digest() string {
	return digest(func(enc *codec.Encoder) { r.tape.Encode(enc) })
}

// openRecord renders the session's creation as a WAL record.
func (s *Session) openRecord() *walRecord {
	rec := &walRecord{T: recOpen, SID: s.id, Mode: s.mode.String()}
	s.run.open(rec)
	return rec
}

func (r *machineRun) open(rec *walRecord) { rec.Model, rec.Src, rec.DB = r.model, r.src, r.db.inst }
