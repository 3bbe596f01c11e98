package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ra"
)

// machinePlans is one machine's compiled form: the output program and the
// state program (no-shadow: bodies read the previous state) lowered over a
// shared intern table, the per-store constant table of the plan — and the
// step scratch its steppers borrow (see scratch).
type machinePlans struct {
	output *ra.Plan
	state  *ra.Plan
	// spare holds the scratch sets no step holds now: as many as the most
	// steps on the plan at once have needed, up to maxSpareScratch.
	mu    sync.Mutex
	spare []*scratch
}

// maxSpareScratch bounds a plan's spare scratch sets. A set is taken for a
// step and given back after it, so a plan holds as many as it ever had
// steps running at once — one per shard stepping it, for the engine — and
// a set given back beyond the bound is left to the collector.
const maxSpareScratch = 64

// borrow lends a step its scratch: a set a finished step gave back, or a
// new one. A free list rather than a sync.Pool, which empties at every
// collection and, under the race detector, drops a quarter of what it is
// given: either would make a step rebuild its stores now and again.
func (p *machinePlans) borrow() *scratch {
	p.mu.Lock()
	if n := len(p.spare); n > 0 {
		sc := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		p.mu.Unlock()
		return sc
	}
	p.mu.Unlock()
	in := p.state.Interner()
	sc := &scratch{input: ra.NewStore(in, nil), out: ra.NewStore(in, nil), next: ra.NewStore(in, nil)}
	sc.lookup[1] = sc.input
	return sc
}

// giveBack returns a borrowed scratch, letting go of the run it served.
func (p *machinePlans) giveBack(sc *scratch) {
	sc.lookup[0], sc.lookup[2] = nil, nil
	p.mu.Lock()
	if len(p.spare) < maxSpareScratch {
		p.spare = append(p.spare, sc)
	}
	p.mu.Unlock()
}

// planCache shares compiled plans across machines with the same rule
// programs: the sessions of a registry model share one Machine, but inline
// programs, network nodes and the decision procedures parse their own, and
// all of them step on one compiled plan (and one intern table) per program.
// The key is the rule text plus the input relation names, which steer the
// join order — name, log declaration and the rest of the schema do not
// reach the plan.
var planCache sync.Map // rule text + input names -> *machinePlans

// compiled finishes construction: it lowers the machine's rule programs to
// relational-algebra plans, through the plan cache. Every constructor ends
// here, so a Machine that exists can step — a program the planner cannot
// lower is a construction error (and a 400 from POST /sessions), never a
// run-time surprise.
func (m *Machine) compiled() (*Machine, error) {
	m.cumulative = cumulativeHeads(m.stateRules)
	inputs := m.schema.In.Names()
	key := m.stateRules.String() + "\x00" + m.outputRules.String() + "\x00" + strings.Join(inputs, "\x00")
	if v, ok := planCache.Load(key); ok {
		ra.NoteCacheHit()
		m.plans = v.(*machinePlans)
		m.tape = newTapeLayout(m.schema, m.plans.state.Interner())
		return m, nil
	}
	in := ra.NewInterner()
	output, err := ra.Compile(m.outputRules, in, inputs...)
	if err != nil {
		return nil, fmt.Errorf("output program: %w", err)
	}
	state, err := ra.CompileNoShadow(m.stateRules, in, inputs...)
	if err != nil {
		return nil, fmt.Errorf("state program: %w", err)
	}
	p := &machinePlans{output: output, state: state}
	if actual, loaded := planCache.LoadOrStore(key, p); loaded {
		ra.NoteCacheHit()
		p = actual.(*machinePlans)
	}
	m.plans = p
	m.tape = newTapeLayout(m.schema, p.state.Interner())
	return m, nil
}

// ExplainPlan renders the machine's compiled output and state plans for
// inspection — the payload of GET /debug/plan.
func (m *Machine) ExplainPlan() string {
	var b strings.Builder
	name := m.name
	if name == "" {
		name = "anonymous"
	}
	fmt.Fprintf(&b, "machine %s (%s) fingerprint %s\n", name, m.kind, m.Fingerprint())
	fmt.Fprintf(&b, "interned constants: %d\n", m.plans.output.Interner().Len())
	fmt.Fprintf(&b, "input relations (a join opens from one when it can): %s\n", strings.Join(m.schema.In.Names(), ", "))
	b.WriteString("output plan:\n")
	b.WriteString(indent(m.plans.output.Explain(), "  "))
	b.WriteString("state plan (no-shadow: bodies read the previous state):\n")
	b.WriteString(indent(m.plans.state.Explain(), "  "))
	return b.String()
}

func indent(s, by string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = by + l
	}
	return strings.Join(lines, "\n") + "\n"
}
