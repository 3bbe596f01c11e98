package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ra"
)

// machinePlans is one machine's compiled form: the output program and the
// state program (no-shadow: bodies read the previous state) lowered over a
// shared intern table, the per-store constant table of the plan.
type machinePlans struct {
	output *ra.Plan
	state  *ra.Plan
}

// planCache shares compiled plans across machines with the same rule
// programs: every session of a registry model parses its own Machine, but
// they all step on one compiled plan (and one intern table). The key is the
// rule text plus the input relation names, which steer the join order —
// name, log declaration and the rest of the schema do not reach the plan.
var planCache sync.Map // rule text + input names -> *machinePlans

// PlanCacheLen reports the number of distinct rule programs with cached plans.
func PlanCacheLen() int {
	n := 0
	planCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

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
