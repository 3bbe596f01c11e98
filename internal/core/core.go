// Package core implements the paper's primary contribution: relational
// transducers — machines mapping sequences of input relations to sequences
// of output relations over a fixed database — and the restricted Spocus
// class (Semi-POsitive outputs, CUmulative State) for which the paper's
// decision procedures apply.
//
// A transducer is specified by a transducer schema (input, state, output,
// database, and log relations), a state program, and an output program, both
// written in the datalog dialect of package dlog. Runs, logs, and the three
// acceptance disciplines of Section 4 (error-free, ok-every-step,
// accept-at-end) are provided here; the decision procedures live in package
// verify.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dlog"
	"repro/internal/ra"
	"repro/internal/relation"
)

// Distinguished output relation names used by the acceptance mechanisms of
// Section 4 of the paper.
const (
	// ErrorRel is the distinguished relation of error-free runs: a run is
	// valid iff no output ever contains an error fact.
	ErrorRel = "error"
	// OKRel is the distinguished relation of ok-validated runs: a run is
	// valid iff every output contains the ok fact.
	OKRel = "ok"
	// AcceptRel is the distinguished relation of accept-validated runs: a
	// finite run is valid iff its last output contains the accept fact.
	AcceptRel = "accept"
)

// PastPrefix is the naming convention linking an input relation R to its
// cumulative state relation past-R.
const PastPrefix = "past-"

// Past returns the state relation name for input relation name.
func Past(input string) string { return PastPrefix + input }

// PastBase maps a state relation past-R back to its input relation R, the
// inverse of Past: ok is false unless name is past-R for an input relation
// R of s.
func (s *Schema) PastBase(name string) (base string, ok bool) {
	base, ok = strings.CutPrefix(name, PastPrefix)
	if !ok || !s.In.Has(base) {
		return "", false
	}
	return base, true
}

// Schema is a transducer schema (in, state, out, db, log): five relation
// schemas where the first four are pairwise disjoint and the log is a subset
// of in ∪ out.
type Schema struct {
	In    relation.Schema
	State relation.Schema
	Out   relation.Schema
	DB    relation.Schema
	// Log lists the names of the logged relations (each declared in In or
	// Out). If Log covers all of In and Out the log is full.
	Log []string
}

// Validate checks the well-formedness conditions of Definition 2.2.
func (s *Schema) Validate() error {
	parts := []struct {
		name string
		sch  relation.Schema
	}{{"input", s.In}, {"state", s.State}, {"output", s.Out}, {"database", s.DB}}
	for i := range parts {
		seen := make(map[string]bool)
		for _, d := range parts[i].sch {
			if seen[d.Name] {
				return fmt.Errorf("schema: duplicate %s relation %s", parts[i].name, d.Name)
			}
			seen[d.Name] = true
		}
		for j := i + 1; j < len(parts); j++ {
			if !parts[i].sch.Disjoint(parts[j].sch) {
				return fmt.Errorf("schema: %s and %s relations are not disjoint", parts[i].name, parts[j].name)
			}
		}
	}
	for _, n := range s.Log {
		if !s.In.Has(n) && !s.Out.Has(n) {
			return fmt.Errorf("schema: log relation %s is not an input or output relation", n)
		}
	}
	return nil
}

// FullLog reports whether the log contains every input and output relation.
func (s *Schema) FullLog() bool {
	logged := make(map[string]bool, len(s.Log))
	for _, n := range s.Log {
		logged[n] = true
	}
	for _, d := range s.In {
		if !logged[d.Name] {
			return false
		}
	}
	for _, d := range s.Out {
		if !logged[d.Name] {
			return false
		}
	}
	return true
}

// LogSchema returns the relation schema of the logged relations.
func (s *Schema) LogSchema() relation.Schema {
	all, _ := s.In.Union(s.Out)
	return all.Restrict(s.Log)
}

// LogDelta computes the logged part of one step's exchange: the restriction
// of the input and output instances to the log relations, combined into a
// fresh instance. This is the per-step increment of the run's log sequence
// (Definition 2.2) and the durable object the session engine persists.
func (s *Schema) LogDelta(input, output relation.Instance) relation.Instance {
	combined := relation.NewInstance()
	for _, n := range s.Log {
		ir, iok := input[n]
		or, ook := output[n]
		switch {
		case iok && ook:
			r := ir.Clone()
			r.UnionWith(or)
			combined[n] = r
		case ook:
			// The output instance is freshly built by this step and treated
			// as an immutable value, so the delta can share its relation.
			combined[n] = or
		case iok:
			// Inputs are caller-owned; copy before retaining.
			combined[n] = ir.Clone()
		}
	}
	return combined
}

// Logged reports whether the named relation is in the log.
func (s *Schema) Logged(name string) bool {
	for _, n := range s.Log {
		if n == name {
			return true
		}
	}
	return false
}

// Arity resolves the arity of a relation in any of the five components.
func (s *Schema) Arity(name string) (int, bool) {
	for _, sch := range []relation.Schema{s.In, s.State, s.Out, s.DB} {
		if a, ok := sch.Arity(name); ok {
			return a, true
		}
	}
	return 0, false
}

// InputError names a relation an input instance may not carry: one that
// is not an input relation of the schema (Want < 0), or one whose arity is
// not the schema's. Callers prefix the step, and the node in a network.
type InputError struct {
	Name        string
	Arity, Want int
}

func (e *InputError) Error() string {
	if e.Want < 0 {
		return fmt.Sprintf("%s is not an input relation", e.Name)
	}
	return fmt.Sprintf("input %s has arity %d, schema says %d", e.Name, e.Arity, e.Want)
}

// CheckInput returns the first relation of in that is not an input
// relation or has the wrong arity, or nil. An empty relation passes at any
// arity.
func (s *Schema) CheckInput(in relation.Instance) *InputError {
	for name, rel := range in {
		a, ok := s.In.Arity(name)
		if !ok {
			return &InputError{Name: name, Want: -1}
		}
		if rel.Len() > 0 && rel.Arity() != a {
			return &InputError{Name: name, Arity: rel.Arity(), Want: a}
		}
	}
	return nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		In:    append(relation.Schema(nil), s.In...),
		State: append(relation.Schema(nil), s.State...),
		Out:   append(relation.Schema(nil), s.Out...),
		DB:    append(relation.Schema(nil), s.DB...),
		Log:   append([]string(nil), s.Log...),
	}
	return c
}

func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "database: %s;\n", s.DB)
	fmt.Fprintf(&b, "input: %s;\n", s.In)
	fmt.Fprintf(&b, "state: %s;\n", s.State)
	fmt.Fprintf(&b, "output: %s;\n", s.Out)
	fmt.Fprintf(&b, "log: %s;", strings.Join(s.Log, ", "))
	return b.String()
}

// Kind classifies how restricted a machine is.
type Kind int

const (
	// KindSpocus is the paper's Spocus class: state relations past-R
	// cumulate inputs verbatim, outputs are nonrecursive semipositive
	// datalog with inequality over in ∪ state ∪ db.
	KindSpocus Kind = iota
	// KindExtended relaxes Spocus by allowing additional cumulative state
	// rules with positive bodies (in particular projections), the extension
	// shown undecidable in Proposition 3.1.
	KindExtended
	// KindGeneral places no restriction beyond safety and stratifiability of
	// the state and output programs.
	KindGeneral
)

func (k Kind) String() string {
	switch k {
	case KindSpocus:
		return "spocus"
	case KindExtended:
		return "extended"
	case KindGeneral:
		return "general"
	}
	return "unknown"
}

// Machine is a rule-specified relational transducer. Use NewSpocus,
// NewExtended, or NewGeneral to construct one; the constructor validates the
// restrictions of the corresponding class.
type Machine struct {
	name        string
	kind        Kind
	schema      *Schema
	stateRules  dlog.Program
	outputRules dlog.Program
	// plans is the machine's compiled relational-algebra form, resolved
	// through the plan cache at construction (see engine.go).
	plans *machinePlans
	// cumulative caches the state-rule heads with cumulative semantics,
	// computed once at construction so the per-step merge never rebuilds it.
	cumulative map[string]bool
	// tape is the layout of the machine's log tapes (see LogTape).
	tape *tapeLayout
	// flagSlots holds the slots of error, ok and accept, or -1 for one the
	// output schema does not declare: a step reads its Flags off them.
	flagSlots [3]int32
	// raCache memoizes interned EDB relations across this machine's steps:
	// the fixed database interns once per machine, and state relations
	// shared across steps by the copy-on-write merge hit it too.
	raCache atomic.Pointer[ra.Cache]
}

// stepCache returns the machine's interned-relation cache, creating it on
// first use (atomically, so concurrent steppers share one).
func (m *Machine) stepCache() *ra.Cache {
	if c := m.raCache.Load(); c != nil {
		return c
	}
	c := ra.NewCache()
	if m.raCache.CompareAndSwap(nil, c) {
		return c
	}
	return m.raCache.Load()
}

// cumulativeHeads returns the set of cumulative state-rule heads.
func cumulativeHeads(p dlog.Program) map[string]bool {
	out := make(map[string]bool)
	for _, r := range p {
		if r.Cumulative {
			out[r.Head.Pred] = true
		}
	}
	return out
}

// Name returns the machine's (possibly empty) name.
func (m *Machine) Name() string { return m.name }

// SetName sets the machine's display name and returns the machine.
func (m *Machine) SetName(name string) *Machine { m.name = name; return m }

// Kind returns the machine's restriction class.
func (m *Machine) Kind() Kind { return m.kind }

// Schema returns the transducer schema. Callers must not mutate it.
func (m *Machine) Schema() *Schema { return m.schema }

// StateRules returns the state program (for Spocus machines these are the
// generated past-R cumulation rules). Callers must not mutate the result.
func (m *Machine) StateRules() dlog.Program { return m.stateRules }

// OutputRules returns the output program. Callers must not mutate it.
func (m *Machine) OutputRules() dlog.Program { return m.outputRules }

// ErrorRules returns the output rules whose head is the distinguished error
// relation.
func (m *Machine) ErrorRules() dlog.Program { return m.outputRules.RulesFor(ErrorRel) }

// pastStateSchema derives the Spocus state schema {past-R | R ∈ in}.
func pastStateSchema(in relation.Schema) relation.Schema {
	out := make(relation.Schema, len(in))
	for i, d := range in {
		out[i] = relation.Decl{Name: Past(d.Name), Arity: d.Arity}
	}
	return out
}

// pastStateRules derives the cumulative rules past-R(x̄) +:- R(x̄).
func pastStateRules(in relation.Schema) dlog.Program {
	var p dlog.Program
	for _, d := range in {
		args := make([]dlog.Term, d.Arity)
		for i := range args {
			args[i] = dlog.V(fmt.Sprintf("X%d", i+1))
		}
		p = append(p, dlog.Rule{
			Head:       dlog.NewAtom(Past(d.Name), args...),
			Body:       []dlog.Literal{dlog.Pos(dlog.NewAtom(d.Name, args...))},
			Cumulative: true,
		})
	}
	return p
}

// NewSpocus constructs a Spocus transducer. The schema's State component may
// be nil, in which case it is derived as {past-R | R ∈ in}; if supplied it
// must equal exactly that set. The output rules must be safe, nonrecursive,
// and semipositive over in ∪ state ∪ db with heads among the output
// relations; inequality literals are permitted.
func NewSpocus(schema *Schema, outputRules dlog.Program) (*Machine, error) {
	s := schema.Clone()
	want := pastStateSchema(s.In)
	if s.State == nil {
		s.State = want
	} else {
		if len(s.State) != len(want) {
			return nil, fmt.Errorf("spocus: state schema must be exactly {past-R | R ∈ in}, got %s", s.State)
		}
		for _, d := range want {
			if a, ok := s.State.Arity(d.Name); !ok || a != d.Arity {
				return nil, fmt.Errorf("spocus: state schema must declare %s/%d", d.Name, d.Arity)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkOutputRules(s, outputRules); err != nil {
		return nil, err
	}
	return (&Machine{
		kind:        KindSpocus,
		schema:      s,
		stateRules:  pastStateRules(s.In),
		outputRules: outputRules,
	}).compiled()
}

// NewExtended constructs a Spocus transducer extended with additional
// cumulative state rules (positive bodies, projections allowed) — the class
// of Proposition 3.1. Every input relation still gets its implicit past-R
// cumulation rule; extraStateRules may define further state relations from
// positive bodies over in ∪ state ∪ db.
func NewExtended(schema *Schema, extraStateRules, outputRules dlog.Program) (*Machine, error) {
	s := schema.Clone()
	implicit := pastStateSchema(s.In)
	var err error
	if s.State == nil {
		s.State = implicit
	} else {
		s.State, err = s.State.Union(implicit)
		if err != nil {
			return nil, fmt.Errorf("extended: %v", err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, r := range extraStateRules {
		if !s.State.Has(r.Head.Pred) {
			return nil, fmt.Errorf("extended: state rule head %s is not a state relation", r.Head.Pred)
		}
		if !r.Cumulative {
			return nil, fmt.Errorf("extended: state rule %q must be cumulative (+:-)", r)
		}
		for _, l := range r.Body {
			if l.Kind == dlog.LitNeg {
				return nil, fmt.Errorf("extended: state rule %q uses negation", r)
			}
			if l.Kind == dlog.LitPos && !s.In.Has(l.Atom.Pred) && !s.DB.Has(l.Atom.Pred) && !s.State.Has(l.Atom.Pred) {
				return nil, fmt.Errorf("extended: state rule %q references unknown relation %s", r, l.Atom.Pred)
			}
		}
	}
	if err := extraStateRules.CheckSafe(); err != nil {
		return nil, err
	}
	if err := checkOutputRules(s, outputRules); err != nil {
		return nil, err
	}
	return (&Machine{
		kind:        KindExtended,
		schema:      s,
		stateRules:  append(pastStateRules(s.In), extraStateRules...),
		outputRules: outputRules,
	}).compiled()
}

// NewGeneral constructs an unrestricted rule-based transducer: state rules
// (cumulative or not) and output rules may be any safe stratifiable datalog
// over the schema. This class is Turing-complete in combination and none of
// the decision procedures apply to it; it exists to demonstrate the
// undecidability boundary.
func NewGeneral(schema *Schema, stateRules, outputRules dlog.Program) (*Machine, error) {
	s := schema.Clone()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, r := range stateRules {
		if !s.State.Has(r.Head.Pred) {
			return nil, fmt.Errorf("general: state rule head %s is not a state relation", r.Head.Pred)
		}
	}
	for _, r := range outputRules {
		if !s.Out.Has(r.Head.Pred) {
			return nil, fmt.Errorf("general: output rule head %s is not an output relation", r.Head.Pred)
		}
	}
	if err := stateRules.CheckSafe(); err != nil {
		return nil, err
	}
	if err := outputRules.CheckSafe(); err != nil {
		return nil, err
	}
	// State rules read the previous state, so same-relation references are
	// temporal, not recursive; only the output program must be stratifiable
	// within a single step.
	if _, err := dlog.Stratify(outputRules); err != nil {
		return nil, err
	}
	return (&Machine{
		kind:        KindGeneral,
		schema:      s,
		stateRules:  stateRules,
		outputRules: outputRules,
	}).compiled()
}

// checkOutputRules enforces the Spocus output conditions (Definition 3.1):
// heads are output relations; bodies are (possibly negated) atoms over
// in ∪ state ∪ db or inequalities; every variable occurs positively.
func checkOutputRules(s *Schema, p dlog.Program) error {
	for _, r := range p {
		if r.Cumulative {
			return fmt.Errorf("output rule %q must not be cumulative", r)
		}
		if !s.Out.Has(r.Head.Pred) {
			return fmt.Errorf("output rule head %s is not an output relation", r.Head.Pred)
		}
		if a, _ := s.Out.Arity(r.Head.Pred); a != len(r.Head.Args) {
			return fmt.Errorf("output rule %q: head arity %d, schema says %d", r, len(r.Head.Args), a)
		}
	}
	allowed := func(n string) bool {
		return s.In.Has(n) || s.State.Has(n) || s.DB.Has(n)
	}
	if err := dlog.CheckSemipositive(p, allowed); err != nil {
		return err
	}
	// Arity consistency for body atoms.
	for _, r := range p {
		for _, l := range r.Body {
			if l.Kind != dlog.LitPos && l.Kind != dlog.LitNeg {
				continue
			}
			if a, ok := s.Arity(l.Atom.Pred); ok && a != len(l.Atom.Args) {
				return fmt.Errorf("rule %q: %s used with arity %d, schema says %d", r, l.Atom.Pred, len(l.Atom.Args), a)
			}
		}
	}
	return nil
}

// Step computes the successor state and the output for one transition:
// Sᵢ = σ(Iᵢ, Sᵢ₋₁, D) and Oᵢ = ω(Iᵢ, Sᵢ₋₁, D). Both functions see the
// *previous* state, per the paper's run semantics. The input instance is not
// mutated; the returned state is freshly allocated.
//
// The rule programs run as the relational-algebra plans compiled when the
// machine was built (package ra). The tree-walking dlog evaluator is the
// oracle of the differential suites (internal/ra, and stepTree in this
// package's tests), which pin Plan.Eval ≡ dlog.EvalStratified tuple for
// tuple; nothing outside test code calls it.
func (m *Machine) Step(input, state, db relation.Instance) (relation.Instance, relation.Instance, error) {
	edb := dlog.MultiDB{input, state, db}
	cache := m.stepCache()
	output, err := m.plans.output.EvalCached(edb, cache)
	if err != nil {
		return nil, nil, err
	}
	// Materialize every declared output relation so empty ones print/compare
	// uniformly.
	for _, d := range m.schema.Out {
		output.Ensure(d.Name, d.Arity)
	}
	derived, err := m.plans.state.EvalCached(edb, cache)
	if err != nil {
		return nil, nil, err
	}
	return m.mergeState(derived, state), output, nil
}

// mergeState combines freshly derived state facts with the previous state
// under cumulative semantics: cumulative heads keep the previous contents;
// non-cumulative heads are recomputed from scratch each step.
//
// The merge is copy-on-write: a cumulative relation with no new facts this
// step is carried into the next state by pointer instead of being copied.
// Relations are add-only and step results are treated as immutable values
// everywhere (inputs are cloned before retention, logs and snapshots only
// read), so sharing is safe and turns the per-step merge cost from
// O(total state) into O(changed state).
func (m *Machine) mergeState(derived, prev relation.Instance) relation.Instance {
	next := relation.NewInstance()
	for _, d := range m.schema.State {
		next.Ensure(d.Name, d.Arity)
	}
	for name, prevRel := range prev {
		if !m.cumulative[name] {
			continue
		}
		if d := derived[name]; d != nil && d.Len() > 0 && !d.SubsetOf(prevRel) {
			merged := prevRel.Clone()
			merged.UnionWith(d)
			next[name] = merged
		} else if prevRel.Len() > 0 {
			next[name] = prevRel
		}
	}
	for name, d := range derived {
		if m.cumulative[name] {
			if _, ok := prev[name]; ok {
				continue // merged above
			}
		}
		if cur, ok := next[name]; ok && cur.Len() > 0 {
			cur.UnionWith(d)
		} else if d.Len() > 0 || !ok {
			next[name] = d
		}
	}
	return next
}

// Run is the trace of a transducer on a database and an input sequence: the
// state, output, and log sequences of Definition 2.2.
type Run struct {
	DB      relation.Instance
	Inputs  relation.Sequence
	States  relation.Sequence
	Outputs relation.Sequence
	Logs    relation.Sequence
}

// Len returns the number of steps in the run.
func (r *Run) Len() int { return len(r.Inputs) }

// LastOutput returns the final output instance, or an empty instance for the
// empty run.
func (r *Run) LastOutput() relation.Instance {
	if len(r.Outputs) == 0 {
		return relation.NewInstance()
	}
	return r.Outputs[len(r.Outputs)-1]
}

// Execute runs the machine on db and the input sequence, producing the full
// trace. Inputs must use only input relations; unknown or wrongly-typed
// relations are rejected.
func (m *Machine) Execute(db relation.Instance, inputs relation.Sequence) (*Run, error) {
	for i, in := range inputs {
		if e := m.schema.CheckInput(in); e != nil {
			return nil, fmt.Errorf("step %d: %w", i+1, e)
		}
	}
	run := &Run{DB: db, Inputs: inputs.Clone()}
	state := relation.NewInstance()
	for _, d := range m.schema.State {
		state.Ensure(d.Name, d.Arity)
	}
	for _, in := range run.Inputs {
		next, out, err := m.Step(in, state, db)
		if err != nil {
			return nil, err
		}
		run.Outputs = append(run.Outputs, out)
		run.States = append(run.States, next)
		run.Logs = append(run.Logs, m.schema.LogDelta(in, out))
		state = next
	}
	return run, nil
}

// AcceptMode selects one of the three input-control disciplines of Section 4.
type AcceptMode int

const (
	// AcceptAll places no restriction: every run is valid.
	AcceptAll AcceptMode = iota
	// ErrorFree accepts runs in which no output contains an error fact.
	ErrorFree
	// OKEveryStep accepts runs in which every output contains ok.
	OKEveryStep
	// AcceptAtEnd accepts finite runs whose last output contains accept.
	AcceptAtEnd
)

func (a AcceptMode) String() string {
	switch a {
	case AcceptAll:
		return "all"
	case ErrorFree:
		return "error-free"
	case OKEveryStep:
		return "ok-every-step"
	case AcceptAtEnd:
		return "accept-at-end"
	}
	return "unknown"
}

// ParseAcceptMode parses an acceptance-mode name as produced by
// AcceptMode.String, accepting the short aliases "ok" and "accept" used by
// the command-line tools. The empty string parses as AcceptAll.
func ParseAcceptMode(s string) (AcceptMode, error) {
	switch s {
	case "", "all":
		return AcceptAll, nil
	case "error-free":
		return ErrorFree, nil
	case "ok", "ok-every-step":
		return OKEveryStep, nil
	case "accept", "accept-at-end":
		return AcceptAtEnd, nil
	}
	return AcceptAll, fmt.Errorf("unknown acceptance mode %q", s)
}

// Valid reports whether the run is valid under the given acceptance mode.
func (r *Run) Valid(mode AcceptMode) bool {
	switch mode {
	case AcceptAll:
		return true
	case ErrorFree:
		for _, out := range r.Outputs {
			if out.Rel(ErrorRel).Len() > 0 {
				return false
			}
		}
		return true
	case OKEveryStep:
		for _, out := range r.Outputs {
			if out.Rel(OKRel).Len() == 0 {
				return false
			}
		}
		return true
	case AcceptAtEnd:
		return len(r.Outputs) > 0 && r.LastOutput().Rel(AcceptRel).Len() > 0
	}
	return false
}

// ErrorFreePrefix returns the length of the longest error-free prefix of the
// run (the full length if the run is error-free).
func (r *Run) ErrorFreePrefix() int {
	for i, out := range r.Outputs {
		if out.Rel(ErrorRel).Len() > 0 {
			return i
		}
	}
	return len(r.Outputs)
}

// FormatTrace renders the run in the style of Figures 1 and 2 of the paper:
// numbered steps with input and output instances (and optionally states and
// logs).
func (r *Run) FormatTrace(showState, showLog bool) string {
	var b strings.Builder
	for i := range r.Inputs {
		fmt.Fprintf(&b, "step %d\n", i+1)
		fmt.Fprintf(&b, "  input:  %s\n", r.Inputs[i])
		fmt.Fprintf(&b, "  output: %s\n", r.Outputs[i])
		if showState {
			fmt.Fprintf(&b, "  state:  %s\n", r.States[i])
		}
		if showLog {
			fmt.Fprintf(&b, "  log:    %s\n", r.Logs[i])
		}
	}
	return b.String()
}

// Constants returns the sorted constants occurring in the machine's rules.
func (m *Machine) Constants() []relation.Const {
	seen := make(map[relation.Const]bool)
	for _, c := range m.stateRules.Constants() {
		seen[c] = true
	}
	for _, c := range m.outputRules.Constants() {
		seen[c] = true
	}
	out := make([]relation.Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the machine as a parseable transducer program.
func (m *Machine) String() string {
	var b strings.Builder
	name := m.name
	if name == "" {
		name = "anonymous"
	}
	fmt.Fprintf(&b, "transducer %s\n", name)
	b.WriteString("schema\n")
	writeDecls := func(kw string, s relation.Schema) {
		if len(s) == 0 {
			return
		}
		parts := make([]string, len(s))
		for i, d := range s {
			parts[i] = fmt.Sprintf("%s/%d", d.Name, d.Arity)
		}
		fmt.Fprintf(&b, "  %s: %s;\n", kw, strings.Join(parts, ", "))
	}
	writeDecls("database", m.schema.DB)
	writeDecls("input", m.schema.In)
	writeDecls("state", m.schema.State)
	writeDecls("output", m.schema.Out)
	fmt.Fprintf(&b, "  log: %s;\n", strings.Join(m.schema.Log, ", "))
	b.WriteString("state rules\n")
	for _, r := range m.stateRules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	b.WriteString("output rules\n")
	for _, r := range m.outputRules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}
