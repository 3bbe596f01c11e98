package session

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/models"
)

// Network sessions: one session owning a whole compose.Network. Every
// POST /input advances all members one synchronous step under unit-delay
// wiring and appends ONE WAL record carrying the step's external inputs —
// the joint step is atomic by construction: either the whole network
// advances (all nodes, all wires) and the record is durable before the ack,
// or nothing happened. WAL replay re-steps the network deterministically, so a
// network session gets exactly the durability, crash-recovery, and handoff
// guarantees of a single-machine session, with the joint log (per-node log
// deltas plus wire traffic) as the semantically significant object.

// netResolver resolves registry model names inside network specs.
var netResolver compose.Resolver = models.Resolve

// netRun is the network counterpart of a Session's machine/state/log
// fields. The owning Session keeps its id, mode, step counter, acceptance
// flags, freeze mark, and rate bucket; this struct owns everything that is
// network-shaped.
type netRun struct {
	spec *compose.Spec
	nw   *compose.Network
	// joint is the per-step joint log: each entry holds every node's log
	// delta plus the wire traffic the step consumed. The durable object.
	joint []JointLogEntry
}

// JointLogEntry is one step of a network session's durable log: the
// restriction of every node's exchange to its log relations, plus the
// unit-delay wire traffic consumed this step.
type JointLogEntry struct {
	Logs compose.StepInputs  `json:"logs"`
	Wire []compose.WireDelta `json:"wire,omitempty"`
}

// newNetSession builds a network session from its spec: the spec is cloned
// and validated by building the network, so a bad spec is rejected before
// anything is logged.
func newNetSession(id string, req *OpenRequest, mode core.AcceptMode) (*Session, error) {
	if req.Model != "" || req.Src != "" {
		return nil, fmt.Errorf("open: network is mutually exclusive with model and src")
	}
	if req.DB != nil {
		return nil, fmt.Errorf("open: network nodes carry their own databases")
	}
	spec := req.Network.Clone()
	nw, err := spec.Build(netResolver)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	nw.Start()
	return &Session{
		id:        id,
		mode:      mode,
		errorFree: true,
		okEvery:   true,
		net:       &netRun{spec: spec, nw: nw},
	}, nil
}

// validateNetInput rejects unknown nodes and unknown or wrongly-typed input
// relations before anything is logged, mirroring validateInput.
func (s *Session) validateNetInput(ext compose.StepInputs) error {
	for name, in := range ext {
		node := s.net.nw.Node(name)
		if node == nil {
			return fmt.Errorf("step %d: no node %s in network", s.steps+1, name)
		}
		if e := node.M.Schema().CheckInput(in); e != nil {
			if e.Want < 0 {
				return fmt.Errorf("step %d: %w of node %s", s.steps+1, e, name)
			}
			return fmt.Errorf("step %d: node %s %w", s.steps+1, name, e)
		}
	}
	return nil
}

// applyNet performs one validated joint transition: every node steps on its
// external inputs unioned with last step's wired outputs, the joint log
// entry is appended, and acceptance flags aggregate across nodes (any error
// fact breaks error-freeness; ok-every-step and accept-at-end require every
// node to emit ok / accept).
func (s *Session) applyNet(ext compose.StepInputs) (*StepResult, error) {
	if ext == nil {
		ext = compose.StepInputs{}
	}
	js := s.net.nw.StepOnce(ext)
	s.net.joint = append(s.net.joint, JointLogEntry{Logs: js.Logs, Wire: js.Wire})
	s.steps++
	allOK, allAccept := true, true
	for _, name := range s.net.nw.Nodes() {
		out := js.Outputs[name]
		if out.Rel(core.ErrorRel).Len() > 0 {
			s.errorFree = false
		}
		if out.Rel(core.OKRel).Len() == 0 {
			allOK = false
		}
		if out.Rel(core.AcceptRel).Len() == 0 {
			allAccept = false
		}
	}
	if !allOK {
		s.okEvery = false
	}
	s.lastAccept = allAccept
	// Clone what escapes the shard: js.Outputs doubles as the network's
	// unit-delay buffer and js.Logs/js.Wire as the durable joint log, so a
	// caller mutating the result must not reach them.
	wire := make([]compose.WireDelta, len(js.Wire))
	copy(wire, js.Wire)
	return &StepResult{
		ID:      s.id,
		Seq:     s.steps,
		Outputs: cloneStepInputs(js.Outputs),
		Logs:    cloneStepInputs(js.Logs),
		Wire:    wire,
		Valid:   s.valid(),
	}, nil
}

// NetInput feeds one joint step to a network session: external inputs
// addressed per node (absent nodes receive nothing; wired inputs arrive
// regardless). The whole joint step is durable (per the fsync policy)
// before it is acknowledged — one WAL record per network step.
func (e *Engine) NetInput(id string, ext compose.StepInputs) (*StepResult, error) {
	return e.NetInputKey(id, "", ext)
}

// NetInputKey is NetInput with a client idempotency key, with exactly the
// dedupe contract of InputKey: a key the session has already applied a
// joint step under answers that step back (Duplicate set) instead of
// advancing the network again.
func (e *Engine) NetInputKey(id, key string, ext compose.StepInputs) (*StepResult, error) {
	return e.step(id, key, true, nil, ext)
}

// JointLogDigest is the canonical digest of a network session's joint log:
// sha-256 over its canonical binary encoding, which is deterministic
// (fresh intern table, sorted keys, sorted names and tuples). The network
// counterpart of LogDigest, verified when a shipped network image installs.
func JointLogDigest(joint []JointLogEntry) string {
	return digest(func(enc *codec.Encoder) { encodeJoint(enc, joint) })
}

// logDigest is the session's digest under either kind.
func (s *Session) logDigest() string {
	if s.net != nil {
		return JointLogDigest(s.net.joint)
	}
	return digest(func(enc *codec.Encoder) { s.tape.Encode(enc) })
}

func cloneStepInputs(ext compose.StepInputs) compose.StepInputs {
	c := make(compose.StepInputs, len(ext))
	for name, in := range ext {
		c[name] = in.Clone()
	}
	return c
}

func cloneJoint(joint []JointLogEntry) []JointLogEntry {
	c := make([]JointLogEntry, len(joint))
	for i, je := range joint {
		c[i] = JointLogEntry{Logs: cloneStepInputs(je.Logs), Wire: make([]compose.WireDelta, len(je.Wire))}
		copy(c[i].Wire, je.Wire)
	}
	return c
}

// NetImage is the network part of a snapshot Image: the spec (identity),
// the run state (per-node states + unit-delay buffer), and the joint log.
type NetImage struct {
	Spec  *compose.Spec     `json:"spec"`
	State *compose.NetState `json:"state"`
	Joint []JointLogEntry   `json:"joint,omitempty"`
}
