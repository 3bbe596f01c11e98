// Package compose implements the interaction of relational transducers the
// paper raises as future work (Section 5): networks in which outputs of
// some transducers are fed as inputs to others, possibly with feedback.
//
// Semantics are synchronous with unit delay: at step i a node consumes its
// external inputs for step i together with the wired outputs its peers
// produced at step i-1. Unit delay sidesteps the instantaneous-feedback
// consistency problem the paper points out, while still letting business
// partners converse (customer orders at step i, supplier bills at step i+1,
// and so on).
//
// The package provides joint runs, error-freeness across the network, and
// a bounded compatibility check in the sense of the introduction: a search
// for a joint run that achieves the parties' goals while every transducer
// stays error-free.
package compose

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
)

// Node is one participant: a named transducer with its own database.
type Node struct {
	Name string
	M    *core.Machine
	DB   relation.Instance

	// run holds the node's state between steps, resident in the step
	// executor's form (see core.Stepper).
	run *core.Stepper
}

// Wire routes one node's output relation into another node's input
// relation (the relations must have equal arity).
type Wire struct {
	From   string // source node
	Output string // source output relation
	To     string // destination node
	Input  string // destination input relation
}

// Network is a set of nodes and wires. After Start it also carries the
// inter-step run state: each node's state instance and the unit-delay
// buffer of last-step outputs. StepOnce advances the whole network one
// synchronous step at a time, which is what lets a serving layer drive a
// network interactively instead of replaying it from scratch per stimulus.
type Network struct {
	nodes map[string]*Node
	order []string
	wires []Wire

	started bool
	steps   int
	prevOut StepInputs
}

// New creates an empty network.
func New() *Network {
	return &Network{nodes: make(map[string]*Node)}
}

// AddNode registers a participant.
func (n *Network) AddNode(name string, m *core.Machine, db relation.Instance) error {
	if _, ok := n.nodes[name]; ok {
		return fmt.Errorf("compose: duplicate node %s", name)
	}
	if db == nil {
		db = relation.NewInstance()
	}
	n.nodes[name] = &Node{Name: name, M: m, DB: db}
	n.order = append(n.order, name)
	return nil
}

// Connect wires an output relation of one node to an input relation of
// another.
func (n *Network) Connect(from, output, to, input string) error {
	src, ok := n.nodes[from]
	if !ok {
		return fmt.Errorf("compose: unknown node %s", from)
	}
	dst, ok := n.nodes[to]
	if !ok {
		return fmt.Errorf("compose: unknown node %s", to)
	}
	oa, ok := src.M.Schema().Out.Arity(output)
	if !ok {
		return fmt.Errorf("compose: %s has no output relation %s", from, output)
	}
	ia, ok := dst.M.Schema().In.Arity(input)
	if !ok {
		return fmt.Errorf("compose: %s has no input relation %s", to, input)
	}
	if oa != ia {
		return fmt.Errorf("compose: wire %s.%s/%d -> %s.%s/%d: arity mismatch", from, output, oa, to, input, ia)
	}
	n.wires = append(n.wires, Wire{From: from, Output: output, To: to, Input: input})
	return nil
}

// Nodes returns the node names in insertion order.
func (n *Network) Nodes() []string { return append([]string(nil), n.order...) }

// ExternalInputs returns, for each node, its input relations that no wire
// feeds — the relations the outside world (the search in Compatible) may
// drive.
func (n *Network) ExternalInputs() map[string]relation.Schema {
	wired := map[string]map[string]bool{}
	for _, w := range n.wires {
		if wired[w.To] == nil {
			wired[w.To] = map[string]bool{}
		}
		wired[w.To][w.Input] = true
	}
	out := map[string]relation.Schema{}
	for name, node := range n.nodes {
		var sch relation.Schema
		for _, d := range node.M.Schema().In {
			if !wired[name][d.Name] {
				sch = append(sch, d)
			}
		}
		out[name] = sch
	}
	return out
}

// StepInputs is one step of external stimulus: node name → input instance.
type StepInputs map[string]relation.Instance

// Run is the trace of a joint execution.
type Run struct {
	// Inputs[i][v] is what node v actually consumed at step i (external ∪
	// wired).
	Inputs []StepInputs
	// Outputs[i][v] is node v's output at step i.
	Outputs []StepInputs
}

// Len returns the number of steps.
func (r *Run) Len() int { return len(r.Outputs) }

// ErrorFree reports whether no node ever output an error fact.
func (r *Run) ErrorFree() bool {
	for _, step := range r.Outputs {
		for _, out := range step {
			if out.Rel(core.ErrorRel).Len() > 0 {
				return false
			}
		}
	}
	return true
}

// Node returns the named participant, or nil if unknown.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Past returns the named started node's cumulated consumed input, external
// and wired alike: read-only, and the same instance until a step grows the
// node's state (see core.Stepper.Past; nil for a non-Spocus node).
func (n *Network) Past(node string) relation.Instance { return n.nodes[node].run.Past() }

// Steps returns how many joint steps have run since Start.
func (n *Network) Steps() int { return n.steps }

// Start (re)initializes the run: every node's state becomes empty and the
// unit-delay buffer is cleared. StepOnce calls it lazily on first use;
// Execute calls it so consecutive executions are independent.
func (n *Network) Start() {
	for _, node := range n.nodes {
		node.run, _ = node.M.NewStepper(node.DB, nil) // only a seeded state can be refused
	}
	n.started = true
	n.steps = 0
	n.prevOut = StepInputs{}
}

// WireDelta is the traffic one wire carried into a step: the facts the
// source produced last step, delivered to the destination's input relation
// this step (unit delay). Facts are in deterministic sorted order.
type WireDelta struct {
	From   string           `json:"from"`
	Output string           `json:"output"`
	To     string           `json:"to"`
	Input  string           `json:"input"`
	Facts  []relation.Tuple `json:"facts"`
}

// JointStep is the full exchange of one synchronous network step: what each
// node consumed (external ∪ wired), what it produced, its log delta, and
// the per-wire traffic delivered this step.
type JointStep struct {
	Seq      int        `json:"seq"`
	Consumed StepInputs `json:"consumed"`
	Outputs  StepInputs `json:"outputs"`
	// Logs[v] is node v's log delta per its own schema's log declaration —
	// the durable per-node object, exactly Definition 2.2 applied nodewise.
	Logs StepInputs  `json:"logs"`
	Wire []WireDelta `json:"wire,omitempty"`
}

// StepOnce advances every node one synchronous step: node v consumes the
// external stimulus ext[v] unioned with the wired outputs its peers
// produced on the previous step. Nodes step in insertion order, but the
// unit delay makes the result order-independent: every node reads only
// last-step outputs, and its own state.
func (n *Network) StepOnce(ext StepInputs) *JointStep {
	if !n.started {
		n.Start()
	}
	js := &JointStep{Seq: n.steps + 1, Consumed: StepInputs{}, Outputs: StepInputs{}, Logs: StepInputs{}}
	for _, w := range n.wires {
		src, ok := n.prevOut[w.From]
		if !ok {
			continue
		}
		if rel := src.Rel(w.Output); rel != nil && rel.Len() > 0 {
			js.Wire = append(js.Wire, WireDelta{From: w.From, Output: w.Output, To: w.To, Input: w.Input, Facts: rel.Tuples()})
		}
	}
	for _, name := range n.order {
		node := n.nodes[name]
		in := relation.NewInstance()
		if e, ok := ext[name]; ok {
			in.UnionWith(e)
		}
		for _, w := range n.wires {
			if w.To != name {
				continue
			}
			src, ok := n.prevOut[w.From]
			if !ok {
				continue
			}
			if rel := src.Rel(w.Output); rel != nil && rel.Len() > 0 {
				in.Ensure(w.Input, rel.Arity()).UnionWith(rel)
			}
		}
		out := node.run.Step(in)
		js.Consumed[name] = in
		js.Outputs[name] = out
		js.Logs[name] = node.M.Schema().LogDelta(in, out)
	}
	n.prevOut = js.Outputs
	n.steps++
	return js
}

// Execute runs the network for len(external) steps from a fresh start.
// Each node's state starts empty; wired values are delayed one step.
func (n *Network) Execute(external []StepInputs) *Run {
	n.Start()
	run := &Run{}
	for i := range external {
		js := n.StepOnce(external[i])
		run.Inputs = append(run.Inputs, js.Consumed)
		run.Outputs = append(run.Outputs, js.Outputs)
	}
	return run
}

// NetState is the serializable inter-step state of a network run: per-node
// state instances plus the unit-delay buffer (last step's outputs). It is
// everything a restarted process needs to continue a run without replay —
// the network-session snapshot format.
type NetState struct {
	Steps  int                          `json:"steps"`
	States map[string]relation.Instance `json:"states"`
	// PrevOut is the delay buffer: what each node output on the last step,
	// due to be delivered over the wires on the next one.
	PrevOut map[string]relation.Instance `json:"prevOut,omitempty"`
}

// ExportState captures the run state after the last StepOnce. Node states
// are materialized and the delay buffer deep-copied: the export stays
// stable while the network keeps running.
func (n *Network) ExportState() *NetState {
	if !n.started {
		n.Start()
	}
	st := &NetState{Steps: n.steps, States: make(map[string]relation.Instance, len(n.order))}
	for _, name := range n.order {
		st.States[name] = n.nodes[name].run.State()
	}
	if len(n.prevOut) > 0 {
		st.PrevOut = make(map[string]relation.Instance, len(n.prevOut))
		for name, out := range n.prevOut {
			st.PrevOut[name] = out.Clone()
		}
	}
	return st
}

// RestoreState resumes a run from an exported state: the next StepOnce
// continues at st.Steps+1 with st's delay buffer on the wires. Unknown
// node names are rejected; nodes absent from st.States keep empty state.
// It starts the run itself, building each node's stepper once.
func (n *Network) RestoreState(st *NetState) error {
	for name := range st.States {
		if _, ok := n.nodes[name]; !ok {
			return fmt.Errorf("compose: restore: unknown node %s", name)
		}
	}
	for name := range st.PrevOut {
		if _, ok := n.nodes[name]; !ok {
			return fmt.Errorf("compose: restore: unknown node %s", name)
		}
	}
	for _, name := range n.order {
		node := n.nodes[name]
		run, err := node.M.NewStepper(node.DB, st.States[name])
		if err != nil {
			return fmt.Errorf("compose: restore: node %s: %w", name, err)
		}
		node.run = run
	}
	n.started = true
	n.prevOut = StepInputs{}
	for name, out := range st.PrevOut {
		n.prevOut[name] = out.Clone()
	}
	n.steps = st.Steps
	return nil
}

// GoalCondition is a predicate over one step's output instance.
// *verify.Goal satisfies it; the indirection keeps compose free of a
// dependency on the verification layer (whose tests sit above the model
// registry, which in turn builds on compose).
type GoalCondition interface {
	Holds(output relation.Instance) bool
}

// Goal names a goal to achieve in a given node's output at the last step.
type Goal struct {
	Node string
	G    GoalCondition
}

// CompatibleResult is the outcome of the bounded compatibility search.
type CompatibleResult struct {
	Compatible bool
	// Witness is the external stimulus of a goal-achieving error-free run.
	Witness []StepInputs
	// Explored counts the candidate runs examined.
	Explored int
}

// Compatible searches for a joint error-free run of length ≤ maxLen that
// satisfies every goal at its final step, driving at most one external fact
// per step drawn from the given constant pool. This realizes (boundedly)
// the compatibility question of the paper's introduction: "there exists a
// run which achieves some desired goals while satisfying both business
// models". The search is exhaustive within its bounds, so a negative
// answer means no such run exists within them.
func (n *Network) Compatible(goals []Goal, pool []relation.Const, maxLen int) (*CompatibleResult, error) {
	for _, g := range goals {
		node, ok := n.nodes[g.Node]
		if !ok {
			return nil, fmt.Errorf("compose: unknown goal node %s", g.Node)
		}
		_ = node
	}
	ext := n.ExternalInputs()
	// Candidate single-fact stimuli (plus the empty stimulus).
	var candidates []StepInputs
	candidates = append(candidates, StepInputs{})
	var nodeNames []string
	for name := range ext {
		nodeNames = append(nodeNames, name)
	}
	sort.Strings(nodeNames)
	for _, name := range nodeNames {
		for _, d := range ext[name] {
			for _, tup := range allTuples(pool, d.Arity) {
				in := relation.NewInstance()
				in.Add(d.Name, tup)
				candidates = append(candidates, StepInputs{name: in})
			}
		}
	}
	res := &CompatibleResult{}
	var rec func(prefix []StepInputs) bool
	rec = func(prefix []StepInputs) bool {
		if len(prefix) > 0 {
			res.Explored++
			run := n.Execute(prefix)
			if !run.ErrorFree() {
				return false // prune: errors never disappear
			}
			achieved := true
			for _, g := range goals {
				out := run.Outputs[run.Len()-1][g.Node]
				if !g.G.Holds(out) {
					achieved = false
					break
				}
			}
			if achieved {
				res.Compatible = true
				res.Witness = prefix
				return true
			}
		}
		if len(prefix) == maxLen {
			return false
		}
		for _, c := range candidates {
			if rec(append(append([]StepInputs{}, prefix...), c)) {
				return true
			}
		}
		return false
	}
	rec(nil)
	return res, nil
}

func allTuples(pool []relation.Const, arity int) []relation.Tuple {
	if arity == 0 {
		return []relation.Tuple{{}}
	}
	sub := allTuples(pool, arity-1)
	var out []relation.Tuple
	for _, c := range pool {
		for _, t := range sub {
			nt := make(relation.Tuple, 0, arity)
			nt = append(nt, c)
			nt = append(nt, t...)
			out = append(out, nt)
		}
	}
	return out
}
