// Package scenario defines the benchmark scenario fleet: named, validated
// workload specs mixing the registry's single-transducer models with
// generated transducer networks, under closed- or open-loop arrival.
//
// A scenario is declarative (JSON) and deterministic: the same spec always
// plans the same sessions with the same input scripts, so bench runs are
// comparable across machines and commits. The fleet in Fleet() is the
// committed baseline workload behind BENCH_scenarios.json.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// Spec is one named scenario: how many sessions, how many steps each, how
// they arrive, and what mix of models and networks they run.
type Spec struct {
	Name string `json:"name"`
	// Info is a human-oriented one-liner carried into the bench report.
	Info string `json:"info,omitempty"`
	// Sessions is the total session count, apportioned over Mix by weight.
	Sessions int `json:"sessions"`
	// Steps is the default steps per session (Element.Steps overrides).
	Steps int `json:"steps"`
	// Arrival is "closed" (default: all sessions start at once and step
	// flat-out) or "open" (session i starts i/Rate seconds into the run,
	// regardless of how earlier sessions are progressing).
	Arrival string `json:"arrival,omitempty"`
	// Rate is the open-loop arrival rate in sessions per second.
	Rate float64 `json:"rate,omitempty"`
	// Mix is the weighted blend of workload elements.
	Mix []Element `json:"mix"`
}

// Element is one ingredient of a scenario mix: exactly one of a registry
// model name, a generated network name, or an inline network spec.
type Element struct {
	Model   string        `json:"model,omitempty"`
	Network string        `json:"network,omitempty"`
	Spec    *compose.Spec `json:"spec,omitempty"`
	// Weight apportions Spec.Sessions (default 1; 0 means 1).
	Weight int `json:"weight,omitempty"`
	// Steps overrides the scenario-wide steps per session for this element.
	Steps int `json:"steps,omitempty"`
}

// Arrival patterns.
const (
	Closed = "closed"
	Open   = "open"
)

// Sanity bounds: a spec is a workload description, not an attack surface;
// anything past these is a typo (or a fuzzer).
const (
	maxSessions = 100_000
	maxSteps    = 100_000
)

// Parse decodes and validates a single scenario spec.
func Parse(data []byte) (*Spec, error) {
	var sp Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// ParseFleet decodes and validates a JSON array of scenario specs,
// additionally rejecting duplicate scenario names.
func ParseFleet(data []byte) ([]*Spec, error) {
	var fleet []*Spec
	if err := json.Unmarshal(data, &fleet); err != nil {
		return nil, fmt.Errorf("scenario fleet: %w", err)
	}
	seen := map[string]bool{}
	for i, sp := range fleet {
		if sp == nil {
			return nil, fmt.Errorf("scenario fleet: entry %d is null", i)
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if seen[sp.Name] {
			return nil, fmt.Errorf("scenario fleet: duplicate scenario %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	return fleet, nil
}

// Validate checks the spec against the model registry and the network
// generators, building inline network specs so that malformed wiring
// (unknown nodes, arity mismatches, duplicate node names) is rejected here
// rather than at open time. Self-wires and cyclic wiring are legal — unit
// delay makes every topology well-defined.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if sp.Sessions < 1 || sp.Sessions > maxSessions {
		return fmt.Errorf("scenario %s: sessions must be in [1, %d], got %d", sp.Name, maxSessions, sp.Sessions)
	}
	if sp.Steps < 1 || sp.Steps > maxSteps {
		return fmt.Errorf("scenario %s: steps must be in [1, %d], got %d", sp.Name, maxSteps, sp.Steps)
	}
	switch sp.Arrival {
	case "", Closed:
		if sp.Rate != 0 {
			return fmt.Errorf("scenario %s: rate applies only to open arrival", sp.Name)
		}
	case Open:
		if sp.Rate <= 0 {
			return fmt.Errorf("scenario %s: open arrival needs rate > 0", sp.Name)
		}
	default:
		return fmt.Errorf("scenario %s: arrival must be %q or %q, got %q", sp.Name, Closed, Open, sp.Arrival)
	}
	if len(sp.Mix) == 0 {
		return fmt.Errorf("scenario %s: mix is empty", sp.Name)
	}
	for i := range sp.Mix {
		el := &sp.Mix[i]
		kinds := 0
		if el.Model != "" {
			kinds++
		}
		if el.Network != "" {
			kinds++
		}
		if el.Spec != nil {
			kinds++
		}
		if kinds != 1 {
			return fmt.Errorf("scenario %s: mix[%d] needs exactly one of model, network, or spec", sp.Name, i)
		}
		if el.Weight < 0 {
			return fmt.Errorf("scenario %s: mix[%d] weight must be >= 0", sp.Name, i)
		}
		if el.Steps < 0 || el.Steps > maxSteps {
			return fmt.Errorf("scenario %s: mix[%d] steps must be in [0, %d]", sp.Name, i, maxSteps)
		}
		switch {
		case el.Model != "":
			if models.Get(el.Model) == nil {
				return fmt.Errorf("scenario %s: mix[%d]: unknown model %q", sp.Name, i, el.Model)
			}
		case el.Network != "":
			if models.Network(el.Network) == nil {
				return fmt.Errorf("scenario %s: mix[%d]: unknown network %q", sp.Name, i, el.Network)
			}
		default:
			if _, err := el.Spec.Build(models.Resolve); err != nil {
				return fmt.Errorf("scenario %s: mix[%d]: bad network spec: %w", sp.Name, i, err)
			}
		}
	}
	total := 0
	for i := range sp.Mix {
		total += sp.Mix[i].weight()
	}
	if total == 0 {
		return fmt.Errorf("scenario %s: all mix weights are zero", sp.Name)
	}
	return nil
}

func (el *Element) weight() int {
	if el.Weight == 0 {
		return 1
	}
	return el.Weight
}

// label names an element inside session IDs and reports.
func (el *Element) label() string {
	switch {
	case el.Model != "":
		return el.Model
	case el.Network != "":
		return "net-" + el.Network
	default:
		return "net-inline"
	}
}

// StartOffset is when session i (of Sessions) begins relative to the run
// start: zero under closed loop, i/Rate under open arrival.
func (sp *Spec) StartOffset(i int) time.Duration {
	if sp.Arrival != Open {
		return 0
	}
	return time.Duration(float64(i) / sp.Rate * float64(time.Second))
}

// SessionPlan is one planned session: its identity (a model + database, or
// a network spec) and its deterministic input script. Exactly one of
// Model/Network is set.
type SessionPlan struct {
	ID      string
	Element string // the mix element's label, for per-element reporting
	Model   string
	DB      relation.Instance
	Network *compose.Spec
	Steps   int

	input func(j int) relation.Instance
	netin func(j int) compose.StepInputs
}

// IsNetwork reports whether the plan opens a network session.
func (p *SessionPlan) IsNetwork() bool { return p.Network != nil }

// Input is the j-th (0-based) step's payload for a model session.
func (p *SessionPlan) Input(j int) relation.Instance { return p.input(j) }

// NetInput is the j-th (0-based) joint step's external inputs for a
// network session.
func (p *SessionPlan) NetInput(j int) compose.StepInputs { return p.netin(j) }

// Counts apportions Sessions over the mix by weight (largest remainder,
// ties to the earlier element), so every run of a spec plans the same
// per-element session counts.
func (sp *Spec) Counts() []int {
	total := 0
	for i := range sp.Mix {
		total += sp.Mix[i].weight()
	}
	counts := make([]int, len(sp.Mix))
	rems := make([]int, len(sp.Mix))
	assigned := 0
	for i := range sp.Mix {
		w := sp.Mix[i].weight()
		counts[i] = sp.Sessions * w / total
		rems[i] = sp.Sessions * w % total
		assigned += counts[i]
	}
	for assigned < sp.Sessions {
		best := -1
		for i := range rems {
			if best < 0 || rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	return counts
}

// Plan expands the spec into its session plans, IDs prefixed with prefix.
// The expansion is a pure function of (spec, prefix): scripts are
// deterministic in (session index, step index).
func (sp *Spec) Plan(prefix string) ([]*SessionPlan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	counts := sp.Counts()
	plans := make([]*SessionPlan, 0, sp.Sessions)
	for e := range sp.Mix {
		el := &sp.Mix[e]
		steps := sp.Steps
		if el.Steps > 0 {
			steps = el.Steps
		}
		for i := 0; i < counts[e]; i++ {
			p, err := el.plan(fmt.Sprintf("%s-%s-%s-%04d", prefix, sp.Name, el.label(), i), i, steps)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: mix[%d]: %w", sp.Name, e, err)
			}
			plans = append(plans, p)
		}
	}
	return plans, nil
}

func (el *Element) plan(id string, i, steps int) (*SessionPlan, error) {
	p := &SessionPlan{ID: id, Element: el.label(), Steps: steps}
	switch {
	case el.Model != "":
		p.Model = el.Model
		p.DB = modelDB(el.Model)
		p.input = modelScript(el.Model, i)
	case el.Network != "":
		p.Network = models.Network(el.Network)
		p.netin = networkScript(el.Network, i)
	default:
		p.Network = el.Spec.Clone()
		// Inline specs carry no script convention: the workload is the
		// network's own wiring dynamics under empty external stimulus.
		p.netin = func(int) compose.StepInputs { return compose.StepInputs{} }
	}
	return p, nil
}

// Fleet is the committed baseline workload: the four scenario families the
// acceptance bench (BENCH_scenarios.json) reports on.
func Fleet() []*Spec {
	mix := make([]Element, 0, len(models.Names()))
	for _, name := range models.Names() {
		mix = append(mix, Element{Model: name})
	}
	return []*Spec{
		{
			Name:     "registry-mix",
			Info:     "even closed-loop blend of all registry models",
			Sessions: 120,
			Steps:    24,
			Mix:      mix,
		},
		{
			Name:     "marketplace",
			Info:     "customer/supplier/shipper networks, closed loop",
			Sessions: 32,
			Steps:    21,
			Mix:      []Element{{Network: "marketplace"}},
		},
		{
			Name:     "fraud",
			Info:     "customer/supplier/monitor networks, closed loop",
			Sessions: 32,
			Steps:    18,
			Mix:      []Element{{Network: "fraud"}},
		},
		{
			Name:     "mixed-open",
			Info:     "open-loop arrivals over a model+network blend",
			Arrival:  Open,
			Rate:     120,
			Sessions: 60,
			Steps:    12,
			Mix: []Element{
				{Model: "short", Weight: 2},
				{Network: "marketplace", Weight: 1, Steps: 14},
				{Network: "customization", Weight: 1, Steps: 18},
			},
		},
	}
}
