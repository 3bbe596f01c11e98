package session

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/relation"
)

// Network sessions: one session running a whole compose.Network. Every
// POST /input advances all members one synchronous step under unit-delay
// wiring and appends ONE WAL record carrying the step's external inputs —
// the joint step is atomic by construction: either the whole network
// advances (all nodes, all wires) and the record is durable before the ack,
// or nothing happened. WAL replay re-steps the network deterministically, so a
// network session gets exactly the durability, crash-recovery, and handoff
// guarantees of a single-machine session, with the joint log (per-node log
// deltas plus wire traffic) as the semantically significant object.

// netRun is a session's run of a network. Its joint log is held flat, as
// a machine's log is: each node's log deltas on a tape of the node's
// machine, and the wire traffic on a tape over the wired output relations,
// qualified by their node (wireRel). JointLogEntry values are decoded from
// the tapes only when a read asks for them.
type netRun struct {
	spec  *compose.Spec
	nw    *compose.Network
	nodes []string        // in name order, the order the codec writes them in
	logs  []*core.LogTape // logs[k] is nodes[k]'s
	wire  *core.LogTape
}

// JointLogEntry is one step of a network session's durable log: the
// restriction of every node's exchange to its log relations, plus the
// unit-delay wire traffic consumed this step.
type JointLogEntry struct {
	Logs compose.StepInputs  `json:"logs"`
	Wire []compose.WireDelta `json:"wire,omitempty"`
}

// newNetRun builds a network run from the spec req carries: the spec is
// cloned and validated by building the network, so a bad spec is rejected
// before anything is logged.
func newNetRun(req *OpenRequest) (*netRun, error) {
	if req.Model != "" || req.Src != "" {
		return nil, fmt.Errorf("open: network is mutually exclusive with model and src")
	}
	if req.DB != nil {
		return nil, fmt.Errorf("open: network nodes carry their own databases")
	}
	r, err := buildNetRun(req.Network.Clone(), nil)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return r, nil
}

// buildNetRun builds spec's network, started from state (the run state of
// an image; nil for a fresh run), with an empty joint log.
func buildNetRun(spec *compose.Spec, state *compose.NetState) (*netRun, error) {
	nw, err := spec.Build(resolveModel)
	if err != nil {
		return nil, err
	}
	if state == nil {
		nw.Start()
	} else if err := nw.RestoreState(state); err != nil {
		return nil, err
	}
	r := &netRun{spec: spec, nw: nw, nodes: nw.Nodes()}
	sort.Strings(r.nodes)
	for _, name := range r.nodes {
		r.logs = append(r.logs, nw.Node(name).M.NewLogTape())
	}
	wires := make(relation.Schema, len(spec.Wires))
	for j, w := range spec.Wires {
		a, _ := nw.Node(w.From).M.Schema().Out.Arity(w.Output)
		wires[j] = relation.Decl{Name: wireRel(w.From, w.Output), Arity: a}
	}
	r.wire = core.NewLogTape(wires, ra.NewInterner())
	return r, nil
}

func (r *netRun) check(id string, seq int, input any) error {
	ext, ok := input.(compose.StepInputs)
	if !ok {
		return fmt.Errorf("session %s is a network session; address inputs per node", id)
	}
	for name, in := range ext {
		node := r.nw.Node(name)
		if node == nil {
			return fmt.Errorf("step %d: no node %s in network", seq, name)
		}
		if e := node.M.Schema().CheckInput(in); e != nil {
			if e.Want < 0 {
				return fmt.Errorf("step %d: %w of node %s", seq, e, name)
			}
			return fmt.Errorf("step %d: node %s %w", seq, name, e)
		}
	}
	return nil
}

// step is one joint transition: every node steps on its external inputs
// unioned with last step's wired outputs. An empty joint step's record
// carries no inputs, so input may be a nil instance then.
func (r *netRun) step(input any, res *StepResult) core.Flags {
	ext, _ := input.(compose.StepInputs)
	js := r.nw.StepOnce(ext)
	_ = r.add(js.Logs, js.Wire) // the network's own exchange always fits it
	f := core.Flags{OK: true, Accept: true}
	for _, out := range js.Outputs {
		f.Error = f.Error || out.Rel(core.ErrorRel).Len() > 0
		f.OK = f.OK && out.Rel(core.OKRel).Len() > 0
		f.Accept = f.Accept && out.Rel(core.AcceptRel).Len() > 0
	}
	if res != nil {
		// Clone what escapes the shard: js.Outputs doubles as the network's
		// unit-delay buffer, and the log deltas share its relations.
		res.Outputs, res.Logs, res.Wire = cloneStepInputs(js.Outputs), cloneStepInputs(js.Logs), js.Wire
	}
	return f
}

// wireRel names the wire tape's relation for node's output relation out:
// every wire from it carries its facts. Relation names hold no spaces.
func wireRel(node, out string) string { return node + " " + out }

// add appends one joint step to the log, refusing relations the network
// does not log or wire.
func (r *netRun) add(logs compose.StepInputs, wire []compose.WireDelta) error {
	traffic := relation.NewInstance()
	for _, wd := range wire {
		for _, f := range wd.Facts {
			rel := traffic.Ensure(wireRel(wd.From, wd.Output), len(f))
			if rel.Arity() != len(f) {
				return fmt.Errorf("wire from %s.%s carries tuples of two arities", wd.From, wd.Output)
			}
			rel.Add(f)
		}
	}
	if err := r.wire.Load(relation.Sequence{traffic}); err != nil {
		return err
	}
	for k, name := range r.nodes {
		if err := r.logs[k].Load(relation.Sequence{logs[name]}); err != nil {
			return fmt.Errorf("node %s: %w", name, err)
		}
	}
	return nil
}

// entry decodes step i (0-based) of the joint log.
func (r *netRun) entry(i int) JointLogEntry {
	je := JointLogEntry{Logs: make(compose.StepInputs, len(r.nodes)), Wire: r.wireAt(i)}
	for k, name := range r.nodes {
		je.Logs[name] = r.logs[k].Delta(i)
	}
	return je
}

// wireAt decodes the wire traffic of step i, in the spec's wire order.
func (r *netRun) wireAt(i int) []compose.WireDelta {
	traffic := r.wire.Delta(i)
	var wire []compose.WireDelta
	for _, w := range r.spec.Wires {
		if rel := traffic[wireRel(w.From, w.Output)]; rel.Len() > 0 {
			wire = append(wire, compose.WireDelta{From: w.From, Output: w.Output, To: w.To, Input: w.Input, Facts: rel.Tuples()})
		}
	}
	return wire
}

func (r *netRun) logStep(i int, res *StepResult) {
	if i < r.wire.Len() {
		je := r.entry(i)
		res.Logs, res.Wire = je.Logs, je.Wire
	}
}

func (r *netRun) readLog(lr *LogResult) {
	lr.Joint = make([]JointLogEntry, r.wire.Len())
	for i := range lr.Joint {
		lr.Joint[i] = r.entry(i)
	}
}

// encode writes the joint log as encodeJoint writes its entries, byte for
// byte, the node logs straight from their tapes.
func (r *netRun) encode(e *codec.Encoder) {
	e.Uvarint(uint64(r.wire.Len()))
	for i := 0; i < r.wire.Len(); i++ {
		e.Uvarint(uint64(len(r.nodes)))
		for k, name := range r.nodes {
			e.Str(name)
			r.logs[k].EncodeStep(e, i)
		}
		encodeWire(e, r.wireAt(i))
	}
}

func (r *netRun) digest() string { return digest(r.encode) }

func (r *netRun) view(v *View) {
	v.Nodes = make(map[string]*NodeView, len(r.spec.Nodes))
	for _, ns := range r.spec.Nodes {
		v.Nodes[ns.Name] = &NodeView{Model: ns.Model, Src: ns.Src, DB: r.nw.Node(ns.Name).DB, Past: r.nw.Past(ns.Name)}
	}
}

// image shares the log as it is now: views of the tapes, which the run's
// later steps do not disturb (see core.LogTape.View).
func (r *netRun) image(img *Image) {
	img.Net = &NetImage{Spec: r.spec, State: r.nw.ExportState()}
	if r.wire.Len() > 0 {
		img.Net.log = &netRun{spec: r.spec, nodes: r.nodes, wire: r.wire.View()}
		for _, t := range r.logs {
			img.Net.log.logs = append(img.Net.log.logs, t.View())
		}
	}
}

func (r *netRun) open(rec *walRecord) { rec.Network = r.spec }

func (r *netRun) describe(inf *Info) {
	inf.Name, inf.Network, inf.Nodes = "network", true, r.nw.Nodes()
}

// restore rebuilds a network run from its image: the network is
// built from its spec and started from the image's run state (per-node
// states + unit-delay buffer), so the next joint step continues exactly
// where the image left off, and the joint log goes onto the run's tapes.
func (ni *NetImage) restore() (*netRun, error) {
	if ni.Spec == nil {
		return nil, fmt.Errorf("snapshot: network image has no spec")
	}
	r, err := buildNetRun(ni.Spec, ni.State)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	for i, je := range ni.Joint {
		if err := r.add(je.Logs, je.Wire); err != nil {
			return nil, fmt.Errorf("snapshot: joint log step %d: %w", i+1, err)
		}
	}
	return r, nil
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
	return e.step(id, key, ext)
}

// JointLogDigest is the canonical digest of a network session's joint log:
// sha-256 over its canonical binary encoding, which is deterministic
// (fresh intern table, sorted keys, sorted names and tuples). The network
// counterpart of LogDigest, verified when a shipped network image installs.
func JointLogDigest(joint []JointLogEntry) string {
	return digest(func(enc *codec.Encoder) { encodeJoint(enc, joint) })
}

func cloneStepInputs(ext compose.StepInputs) compose.StepInputs {
	c := make(compose.StepInputs, len(ext))
	for name, in := range ext {
		c[name] = in.Clone()
	}
	return c
}

// NetImage is the network part of a snapshot Image: the spec (identity),
// the run state (per-node states + unit-delay buffer), and the joint log —
// as values in a decoded image, which is what restores; an image snapOf
// built, which is only encoded, holds views of the run's tapes (log).
type NetImage struct {
	Spec  *compose.Spec     `json:"spec"`
	State *compose.NetState `json:"state"`
	Joint []JointLogEntry   `json:"joint,omitempty"`

	log *netRun
}
