package fol

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/dlog"
	"repro/internal/relation"
	"repro/internal/sat"
)

// WitnessPrefix begins the names of the fresh witness elements added to the
// domain by the small-model construction. The '?' keeps them disjoint from
// every parseable constant.
const WitnessPrefix = "?w"

// Problem is a finite-satisfiability question for a closed ∃*∀*FO sentence.
type Problem struct {
	// Formula is the closed sentence to test. It may use arbitrary
	// ∧/∨/¬/→ structure as long as, after NNF, no existential quantifier
	// falls under a universal one.
	Formula Formula
	// Fixed maps predicate names to closed-world finite extensions (e.g.
	// the product database): an atom over Fixed is true iff the tuple is
	// present.
	Fixed map[string]*relation.Rel
	// Free maps predicate names to arities; their extensions over the
	// finite domain are chosen by the solver (e.g. the unknown inputs).
	Free map[string]int
	// ExtraConsts adds constants to the domain beyond those in the formula
	// and the fixed relations.
	ExtraConsts []relation.Const
	// Witnesses overrides the number of fresh witness elements; 0 means
	// max(1, number of existential variables), the paper's bound.
	Witnesses int
	// FiniteDomain admits sentences outside the Bernays–Schönfinkel class
	// (existential quantifiers under universal ones) by expanding the inner
	// existentials disjunctively over the finite domain. The answer is then
	// satisfiability over that explicit domain — sound and complete for BS
	// sentences, but only a bounded check for ∀∃ sentences, whose
	// small-model property does not hold in general. Witness elements are
	// allocated for the outer existentials only.
	FiniteDomain bool
	// MaxConflicts bounds the SAT search (0 = unlimited); exceeding it
	// yields Status Unknown.
	MaxConflicts int64
	// Context, when non-nil, cancels in-flight work: grounding polls it
	// periodically (returning the context's error), and the SAT search is
	// interrupted (returning Status Unknown). Callers distinguish budget
	// exhaustion from cancellation by checking Context.Err after an Unknown
	// result.
	Context context.Context
	// Tag is an opaque scope label ignored by the solver but included in
	// memoization keys built over the problem. Callers that share one cache
	// across different problem generators (e.g. verify's per-machine
	// translations, which erase the machine into formula structure) set it
	// to the generators' identity so structurally identical problems from
	// different sources never alias.
	Tag string
}

// Result reports the outcome of Solve.
type Result struct {
	// Status is Sat, Unsat, or Unknown (budget exhausted).
	Status sat.Status
	// Domain is the finite universe used (constants plus witnesses).
	Domain []relation.Const
	// Model holds chosen extensions for the free predicates (Sat only).
	Model map[string]*relation.Rel
	// Witness maps each (alpha-renamed) existential variable to its chosen
	// domain element (Sat only).
	Witness map[string]relation.Const
	// Vars and Clauses are grounding statistics.
	Vars, Clauses int
	// GroundTime is the time spent building the CNF (normal form, domain,
	// grounding) and SolveTime the CDCL search; Decisions and Conflicts are
	// the search's counters. Together they split a cold solve's cost.
	GroundTime, SolveTime time.Duration
	Decisions, Conflicts  uint64
}

// Solve decides finite satisfiability of the problem by grounding to CNF
// and running the CDCL solver. See the package comment for semantics.
func Solve(p *Problem) (*Result, error) {
	if observe != nil {
		observe(p)
	}
	return solve(p, func(g *grounder, f Formula) (int, error) { return g.lit(f, false) })
}

// observe, when non-nil, sees every problem Solve is given. Only this
// package's tests set it, to rerun the problems other packages build
// through the test-only naive grounder.
var observe func(*Problem)

// solve decides the problem with ground encoding its sentence (in NNF,
// bound variables renamed apart) into the grounder's solver.
func solve(p *Problem, ground func(*grounder, Formula) (int, error)) (*Result, error) {
	start := time.Now()
	if p.Context != nil {
		if err := p.Context.Err(); err != nil {
			return nil, err
		}
	}
	f := RenameBound(NNF(p.Formula))
	if fv := FreeVars(f); len(fv) > 0 {
		return nil, fmt.Errorf("fol: sentence has free variables %v", fv)
	}
	if !p.FiniteDomain {
		if _, err := CheckBS(f); err != nil {
			return nil, err
		}
	}
	outer := outerExistentials(f)
	// Check predicate usage against Fixed/Free declarations.
	preds := Preds(f)
	for pred, arity := range preds {
		if r, ok := p.Fixed[pred]; ok {
			if r != nil && r.Len() > 0 && r.Arity() != arity {
				return nil, fmt.Errorf("fol: %s used with arity %d, fixed relation has arity %d", pred, arity, r.Arity())
			}
			continue
		}
		if a, ok := p.Free[pred]; ok {
			if a != arity {
				return nil, fmt.Errorf("fol: %s used with arity %d, declared free with arity %d", pred, arity, a)
			}
			continue
		}
		return nil, fmt.Errorf("fol: predicate %s is neither fixed nor free", pred)
	}

	// Assemble the domain: formula constants, fixed-relation active domain,
	// extra constants, then witnesses.
	domSet := make(map[relation.Const]bool)
	for _, c := range Constants(f) {
		domSet[c] = true
	}
	for _, r := range p.Fixed {
		r.Range(func(t relation.Tuple) bool {
			for _, c := range t {
				domSet[c] = true
			}
			return true
		})
	}
	for _, c := range p.ExtraConsts {
		domSet[c] = true
	}
	var domain []relation.Const
	for c := range domSet {
		domain = append(domain, c)
	}
	sort.Slice(domain, func(i, j int) bool { return domain[i] < domain[j] })
	w := p.Witnesses
	if w == 0 {
		w = len(outer)
		if w == 0 {
			w = 1
		}
	}
	for i := 1; i <= w; i++ {
		domain = append(domain, relation.Const(fmt.Sprintf("%s%d", WitnessPrefix, i)))
	}

	g := newGrounder(p, preds, domain)
	root, err := ground(g, f)
	if err == nil {
		g.add(root)
		err = g.err
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Domain: domain, Vars: g.solver.NumVars(), Clauses: g.solver.NumClauses()}
	if ctx := p.Context; ctx != nil {
		g.solver.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	mid := time.Now()
	res.GroundTime = mid.Sub(start)
	if p.MaxConflicts > 0 {
		res.Status = g.solver.SolveBudget(p.MaxConflicts)
	} else {
		res.Status = g.solver.Solve()
	}
	res.SolveTime = time.Since(mid)
	_, res.Conflicts, res.Decisions = g.solver.Stats()
	if res.Status != sat.Sat {
		return res, nil
	}
	// Extract the model of the free predicates.
	res.Model = make(map[string]*relation.Rel, len(p.Free))
	for pred, arity := range p.Free {
		res.Model[pred] = relation.NewRel(arity)
	}
	g.eachAtom(func(pid int, args []int, v int) {
		if g.solver.Value(v) {
			t := make(relation.Tuple, len(args))
			for i, a := range args {
				t[i] = domain[a]
			}
			res.Model[g.preds[pid].name].Add(t)
		}
	})
	// Extract existential witnesses: a selector's chosen element, else the
	// binding of an expanded block's first instance that holds, else (the
	// block was never grounded, or holds nowhere) the first element.
	res.Witness = make(map[string]relation.Const, len(outer))
	for id, vars := range g.selVars {
		for i, v := range vars {
			if g.solver.Value(v) {
				res.Witness[g.selNames[id]] = domain[i]
				break
			}
		}
	}
	held := make([]bool, len(g.insts))
	for i, in := range g.insts {
		held[i] = g.holds(in.lit) && (in.parent < 0 || held[in.parent])
		if !held[i] {
			continue
		}
		for k, x := range in.names {
			if _, ok := res.Witness[x]; !ok {
				res.Witness[x] = domain[g.instVals[in.vals+k]]
			}
		}
	}
	for _, x := range outer {
		if _, ok := res.Witness[x]; !ok {
			res.Witness[x] = domain[0]
		}
	}
	return res, nil
}

// gterm is a grounded term during encoding: a domain element (by index) or
// a selector-encoded existential variable (by id).
type gterm struct {
	c   int
	sel int // ≥ 0: id of an existential variable; c is then unused
}

// binding is one entry of the grounder's variable environment.
type binding struct {
	name string
	t    gterm
}

// predInfo describes one predicate of the sentence. A fixed predicate's
// extension is an index set of packed atom keys, built once per Solve, and
// its tuples as domain indices, which guards enumerate.
type predInfo struct {
	name      string
	arity     int
	fixed     bool
	facts     map[uint64]struct{}
	wideFacts map[string]struct{}
	// tuples holds the extension's tuples back to back, arity indices each.
	tuples []int
	// index maps a set of bound positions (bit i for argument i) to the
	// rows whose values there spell the key, built when a guard first
	// probes those positions.
	index map[uint64]map[string][]int32
}

type grounder struct {
	solver  *sat.Solver
	domain  []relation.Const
	domIdx  map[relation.Const]int
	trueVar int

	preds  []predInfo
	predID map[string]int
	// A ground atom is keyed by its predicate id and its arguments' domain
	// indices, packed base |D| below a stride of |D|^maxArity. When
	// predicates × stride would overflow a word, keys are spelled out as
	// byte strings instead (wide).
	wide   bool
	stride uint64
	// atoms (or wideAtoms) caches the SAT variables of free ground atoms.
	atoms     map[uint64]int
	wideAtoms map[string]int

	// selVars[id] are existential variable id's selector variables, one per
	// domain element, under an exactly-one constraint.
	selVars  [][]int
	selNames []string
	selID    map[string]int

	// insts records the instances of top-level existential blocks expanded
	// over their guards' bindings, in grounding order, for the witness.
	insts    []instance
	instVals []int
	// cur is the instance whose body is being grounded, -1 outside any.
	cur int

	// env is the variable environment, a stack: quantifiers push their
	// bindings and pop them when their scope is grounded.
	env []binding
	// binds is a stack of admitted bindings: a block being grounded keeps
	// its rows above those of the blocks it is nested in.
	binds []int
	// stack collects the child literals of the connectives and quantifiers
	// being grounded, each above its parent's.
	stack []int
	// Scratch for the per-atom path; AddClause copies what it keeps.
	args   []gterm
	idx    []int
	slots  []int
	sels   []int
	combo  []int
	clause []int
	key    []byte

	// err is the first AddClause error; grounding stops at the next poll
	// and Solve returns it.
	err error
	// ctx, when non-nil, is polled every groundPollEvery encoding steps so
	// that a cancelled caller does not wait out an exponential grounding.
	ctx context.Context
	ops uint
}

// groundPollEvery is the number of encoding steps between context polls
// during grounding.
const groundPollEvery = 1024

func newGrounder(p *Problem, preds map[string]int, domain []relation.Const) *grounder {
	g := &grounder{
		solver: sat.New(),
		domain: domain,
		domIdx: make(map[relation.Const]int, len(domain)),
		predID: make(map[string]int, len(preds)),
		selID:  make(map[string]int),
		cur:    -1,
		ctx:    p.Context,
	}
	for i, d := range domain {
		g.domIdx[d] = i
	}
	names := make([]string, 0, len(preds))
	maxArity := 0
	for name, arity := range preds {
		names = append(names, name)
		maxArity = max(maxArity, arity)
	}
	sort.Strings(names)
	g.stride = 1
	for i := 0; i < maxArity && !g.wide; i++ {
		hi, lo := bits.Mul64(g.stride, uint64(len(domain)))
		g.stride, g.wide = lo, hi != 0
	}
	if hi, _ := bits.Mul64(g.stride, uint64(len(names))); hi != 0 {
		g.wide = true
	}
	if g.wide {
		g.wideAtoms = make(map[string]int)
	} else {
		g.atoms = make(map[uint64]int)
	}
	for pid, name := range names {
		g.predID[name] = pid
		info := predInfo{name: name, arity: preds[name]}
		if r, ok := p.Fixed[name]; ok {
			info.fixed = true
			if g.wide {
				info.wideFacts = make(map[string]struct{}, r.Len())
			} else {
				info.facts = make(map[uint64]struct{}, r.Len())
			}
			if r.Len() > 0 && r.Arity() == info.arity {
				r.Range(func(t relation.Tuple) bool {
					idx := g.idx[:0]
					for _, c := range t {
						idx = append(idx, g.domIdx[c])
					}
					g.idx = idx
					info.tuples = append(info.tuples, idx...)
					if g.wide {
						info.wideFacts[string(g.wideKey(pid, idx))] = struct{}{}
					} else {
						info.facts[g.packedKey(pid, idx)] = struct{}{}
					}
					return true
				})
				// Relations range in no fixed order; sorted rows make the
				// instances, and so the variable numbering, reproducible.
				sort.Sort(rowOrder{info.tuples, info.arity})
			}
		}
		g.preds = append(g.preds, info)
	}
	g.trueVar = g.solver.NewVar()
	g.add(g.trueVar)
	return g
}

// rowOrder sorts tuples stored back to back, arity indices each, into
// lexicographic order.
type rowOrder struct {
	t     []int
	arity int
}

func (o rowOrder) Len() int {
	if o.arity == 0 {
		return 0
	}
	return len(o.t) / o.arity
}

func (o rowOrder) Less(i, j int) bool {
	a, b := o.t[i*o.arity:(i+1)*o.arity], o.t[j*o.arity:(j+1)*o.arity]
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func (o rowOrder) Swap(i, j int) {
	for k := 0; k < o.arity; k++ {
		o.t[i*o.arity+k], o.t[j*o.arity+k] = o.t[j*o.arity+k], o.t[i*o.arity+k]
	}
}

// packedKey is the word key of atom pid(idx…).
func (g *grounder) packedKey(pid int, idx []int) uint64 {
	k := uint64(0)
	for _, i := range idx {
		k = k*uint64(len(g.domain)) + uint64(i)
	}
	return uint64(pid)*g.stride + k
}

// wideKey spells atom pid(idx…) out as varints in the key scratch buffer.
func (g *grounder) wideKey(pid int, idx []int) []byte {
	b := binary.AppendUvarint(g.key[:0], uint64(pid))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	g.key = b
	return b
}

// eachAtom calls f for every free ground atom with its SAT variable; args
// is reused between calls.
func (g *grounder) eachAtom(f func(pid int, args []int, v int)) {
	var args []int
	if g.wide {
		for key, v := range g.wideAtoms {
			b := []byte(key)
			pid, n := binary.Uvarint(b)
			b = b[n:]
			args = args[:0]
			for len(b) > 0 {
				i, n := binary.Uvarint(b)
				args, b = append(args, int(i)), b[n:]
			}
			f(int(pid), args, v)
		}
		return
	}
	d := uint64(len(g.domain))
	for key, v := range g.atoms {
		pid := int(key / g.stride)
		k := key % g.stride
		args = append(args[:0], make([]int, g.preds[pid].arity)...)
		for i := len(args) - 1; i >= 0; i-- {
			args[i] = int(k % d)
			k /= d
		}
		f(pid, args, v)
	}
}

// add adds a clause, keeping the first error for Solve to return.
func (g *grounder) add(lits ...int) {
	if err := g.solver.AddClause(lits...); err != nil && g.err == nil {
		g.err = err
	}
}

// poll returns the first AddClause error, and checks the grounding context
// every groundPollEvery calls.
func (g *grounder) poll() error {
	if g.err != nil {
		return g.err
	}
	if g.ctx == nil {
		return nil
	}
	g.ops++
	if g.ops%groundPollEvery == 0 {
		return g.ctx.Err()
	}
	return nil
}

// fact reports whether fixed predicate pid holds at idx.
func (g *grounder) fact(pid int, idx []int) bool {
	info := &g.preds[pid]
	if g.wide {
		_, ok := info.wideFacts[string(g.wideKey(pid, idx))]
		return ok
	}
	_, ok := info.facts[g.packedKey(pid, idx)]
	return ok
}

// groundAtomLit returns the literal for a fully ground atom pid(idx…): a
// truth constant for fixed predicates, a cached SAT variable for free ones.
func (g *grounder) groundAtomLit(pid int, idx []int) int {
	if g.preds[pid].fixed {
		if g.fact(pid, idx) {
			return g.trueVar
		}
		return -g.trueVar
	}
	if g.wide {
		key := g.wideKey(pid, idx)
		if v, ok := g.wideAtoms[string(key)]; ok {
			return v
		}
		v := g.solver.NewVar()
		g.wideAtoms[string(key)] = v
		return v
	}
	key := g.packedKey(pid, idx)
	if v, ok := g.atoms[key]; ok {
		return v
	}
	v := g.solver.NewVar()
	g.atoms[key] = v
	return v
}

// selectors allocates (once) the selector variables for existential
// variable x with the exactly-one constraint, and returns x's id.
func (g *grounder) selectors(x string) int {
	if id, ok := g.selID[x]; ok {
		return id
	}
	vs := make([]int, len(g.domain))
	for i := range vs {
		vs[i] = g.solver.NewVar()
	}
	// At least one.
	g.add(vs...)
	// At most one (pairwise).
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			g.add(-vs[i], -vs[j])
		}
	}
	id := len(g.selVars)
	g.selID[x] = id
	g.selVars = append(g.selVars, vs)
	g.selNames = append(g.selNames, x)
	return id
}

// term resolves a term under the environment.
func (g *grounder) term(t dlog.Term) (gterm, error) {
	if !t.Var {
		i, ok := g.domIdx[relation.Const(t.Name)]
		if !ok {
			return gterm{}, fmt.Errorf("fol: constant %s outside the domain", t.Name)
		}
		return gterm{c: i, sel: -1}, nil
	}
	for i := len(g.env) - 1; i >= 0; i-- {
		if g.env[i].name == t.Name {
			return g.env[i].t, nil
		}
	}
	return gterm{}, fmt.Errorf("fol: unbound variable %s", t.Name)
}

// lit encodes the formula under the environment and returns a literal that
// is (for the positive-polarity occurrences NNF guarantees for ∃, and full
// equivalence elsewhere) equivalent to the formula's truth. underForall
// tracks quantifier nesting: existentials inside a universal scope are
// expanded disjunctively over the domain (finite-domain semantics) rather
// than selector-encoded, since their witness may depend on the universal
// instantiation.
func (g *grounder) lit(f Formula, underForall bool) (int, error) {
	if err := g.poll(); err != nil {
		return 0, err
	}
	switch t := f.(type) {
	case Atom:
		return g.atomLit(t)
	case Equal:
		return g.eqLit(t)
	case Not:
		l, err := g.lit(t.F, underForall)
		if err != nil {
			return 0, err
		}
		return -l, nil
	case And:
		return g.junction(t.Fs, underForall, true)
	case Or:
		return g.junction(t.Fs, underForall, false)
	case Forall:
		return g.block(t.Vars, t.F, true, true)
	case Exists:
		return g.block(t.Vars, t.F, false, underForall)
	}
	return 0, fmt.Errorf("fol: unknown formula node %T", f)
}

// junction encodes a conjunction (and) or disjunction of fs, dropping
// children equal to the connective's unit and stopping at its zero.
func (g *grounder) junction(fs []Formula, underForall, and bool) (int, error) {
	unit := g.trueVar
	if !and {
		unit = -g.trueVar
	}
	base := len(g.stack)
	defer func() { g.stack = g.stack[:base] }()
	for _, h := range fs {
		l, err := g.lit(h, underForall)
		if err != nil {
			return 0, err
		}
		if l == unit {
			continue
		}
		if l == -unit {
			return -unit, nil
		}
		g.stack = append(g.stack, l)
	}
	if and {
		return g.andLit(g.stack[base:]), nil
	}
	return g.orLit(g.stack[base:]), nil
}

// instance is one instance of a top-level existential block expanded over
// its guards' bindings: the literal its body grounded to, the instance it
// was grounded within (-1 for none), and the bound variables with their
// values at instVals[vals:].
type instance struct {
	names       []string
	parent, lit int
	vals        int
}

// holds reads a literal's value in the solver's model.
func (g *grounder) holds(l int) bool {
	if l < 0 {
		return !g.solver.Value(-l)
	}
	return g.solver.Value(l)
}

// gather collects a quantifier block: it merges into vars the quantifiers of
// the same kind nested directly in body or among the items of body's
// junction (∧ under ∃, ∨ under ∀), which bound-variable renaming makes
// equivalent (∃x (φ ∧ ∃y ψ) ≡ ∃x,y (φ ∧ ψ)), and returns the junction's
// items, flattened.
func gather(vars []string, body Formula, forall bool) ([]string, []Formula) {
	vars = append([]string(nil), vars...)
	var items []Formula
	var walk func(f Formula)
	walk = func(f Formula) {
		switch t := f.(type) {
		case And:
			if !forall {
				for _, h := range t.Fs {
					walk(h)
				}
				return
			}
		case Or:
			if forall {
				for _, h := range t.Fs {
					walk(h)
				}
				return
			}
		case Exists:
			if !forall {
				vars = append(vars, t.Vars...)
				walk(t.F)
				return
			}
		case Forall:
			if forall {
				vars = append(vars, t.Vars...)
				walk(t.F)
				return
			}
		}
		items = append(items, f)
	}
	walk(body)
	return vars, items
}

// guardArg is one argument of a guard atom: a domain element the tuple
// must hold (c ≥ 0), or a block variable's slot. bind marks the position
// that binds the slot; same ≥ 0 marks a later position of a variable bound
// at position same of the atom, which must agree with it.
type guardArg struct {
	c, slot, same int
	bind          bool
}

// guard is one step of a block's join: a fixed atom whose tuples admit
// bindings, probed through the index on the positions bound before it.
type guard struct {
	pid   int
	args  []guardArg
	bound uint64
}

// guards plans the join that enumerates a block's bindings. A guard is an
// item over a fixed predicate outside which the block's body grounds to its
// identity — an atom of an existential block's conjunction, a negated atom
// of a universal block's disjunction — so only the instances its tuples
// admit need grounding. The plan orders guards bound-first: a guard with
// the most positions already bound goes next, the smaller extension
// breaking ties. A fixed item of the opposite sign whose variables the
// guards bind is a filter: the bindings it holds at ground the body to the
// block's zero, so the join drops them (an anti-join). Items whose
// arguments use a selector variable cannot be probed and ground as
// ordinary items. covered marks the slots some guard binds; it is nil when
// no guard applies.
func (g *grounder) guards(vars []string, items []Formula, forall bool) (plan, filters []guard, covered []bool, err error) {
	var cands []guard
	for _, it := range items {
		positive := true
		if n, ok := it.(Not); ok {
			positive, it = false, n.F
		}
		a, ok := it.(Atom)
		if !ok {
			continue
		}
		pid, ok := g.predID[a.Pred]
		if !ok || !g.preds[pid].fixed || len(a.Args) != g.preds[pid].arity || len(a.Args) > 64 {
			continue
		}
		gd := guard{pid: pid}
		usable, mentions := true, false
		for _, t := range a.Args {
			slot := -1
			if t.Var {
				for i, x := range vars {
					if x == t.Name {
						slot = i
					}
				}
			}
			if slot >= 0 {
				gd.args = append(gd.args, guardArg{c: -1, slot: slot, same: -1})
				mentions = true
				continue
			}
			gt, err := g.term(t)
			if err != nil {
				return nil, nil, nil, err
			}
			if gt.sel >= 0 {
				usable = false
				break
			}
			gd.args = append(gd.args, guardArg{c: gt.c, slot: -1, same: -1})
		}
		if !usable || !mentions {
			continue
		}
		if positive != forall {
			cands = append(cands, gd)
		} else {
			gd.bound = 1<<len(gd.args) - 1
			filters = append(filters, gd)
		}
	}
	if len(cands) == 0 {
		return nil, nil, nil, nil
	}
	covered = make([]bool, len(vars))
	for len(cands) > 0 {
		best, bestBound := -1, -1
		for i, gd := range cands {
			nb := 0
			for _, a := range gd.args {
				if a.c >= 0 || covered[a.slot] {
					nb++
				}
			}
			if nb > bestBound || nb == bestBound && g.preds[gd.pid].rows() < g.preds[cands[best].pid].rows() {
				best, bestBound = i, nb
			}
		}
		gd := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		for j := range gd.args {
			a := &gd.args[j]
			if a.c < 0 {
				for i := 0; i < j; i++ {
					if gd.args[i].bind && gd.args[i].slot == a.slot {
						a.same = i
					}
				}
			}
			switch {
			case a.same >= 0:
			case a.c >= 0 || covered[a.slot]:
				gd.bound |= 1 << j
			default:
				a.bind = true
				covered[a.slot] = true
			}
		}
		plan = append(plan, gd)
	}
	kept := filters[:0]
	for _, f := range filters {
		bound := true
		for _, a := range f.args {
			bound = bound && (a.c >= 0 || covered[a.slot])
		}
		if bound {
			kept = append(kept, f)
		}
	}
	return plan, kept, covered, nil
}

// rows is the number of tuples in a fixed predicate's extension.
func (p *predInfo) rows() int {
	if p.arity == 0 {
		return 0
	}
	return len(p.tuples) / p.arity
}

// probe returns the rows of the guard's predicate whose bound positions
// hold the values in row (slots) or the guard's constants, through the
// index on those positions.
func (g *grounder) probe(gd *guard, row []int) []int32 {
	info := &g.preds[gd.pid]
	if info.index == nil {
		info.index = make(map[uint64]map[string][]int32)
	}
	ix, ok := info.index[gd.bound]
	if !ok {
		ix = make(map[string][]int32)
		for r := 0; r < info.rows(); r++ {
			t := info.tuples[r*info.arity : (r+1)*info.arity]
			b := g.key[:0]
			for j, v := range t {
				if gd.bound&(1<<j) != 0 {
					b = binary.AppendUvarint(b, uint64(v))
				}
			}
			g.key = b
			ix[string(b)] = append(ix[string(b)], int32(r))
		}
		info.index[gd.bound] = ix
	}
	b := g.key[:0]
	for j, a := range gd.args {
		switch {
		case gd.bound&(1<<j) == 0:
		case a.c >= 0:
			b = binary.AppendUvarint(b, uint64(a.c))
		default:
			b = binary.AppendUvarint(b, uint64(row[a.slot]))
		}
	}
	g.key = b
	return ix[string(b)]
}

// holdsAt reports whether a guard whose positions are all bound holds at
// the slots row binds.
func (g *grounder) holdsAt(gd *guard, row []int) bool {
	idx := g.idx[:0]
	for _, a := range gd.args {
		if a.c >= 0 {
			idx = append(idx, a.c)
		} else {
			idx = append(idx, row[a.slot])
		}
	}
	g.idx = idx
	return g.fact(gd.pid, idx)
}

// admit appends to binds one row per binding of the block's covered slots
// that the guards plan[k:] admit and no filter holds at, given the slots
// row already binds.
func (g *grounder) admit(plan, filters []guard, k int, row []int) error {
	if err := g.poll(); err != nil {
		return err
	}
	if k == len(plan) {
		for i := range filters {
			if g.holdsAt(&filters[i], row) {
				return nil
			}
		}
		g.binds = append(g.binds, row...)
		return nil
	}
	gd := &plan[k]
	if gd.bound == 1<<len(gd.args)-1 {
		if !g.holdsAt(gd, row) {
			return nil
		}
		return g.admit(plan, filters, k+1, row)
	}
	info := &g.preds[gd.pid]
	visit := func(r int) error {
		t := info.tuples[r*info.arity : (r+1)*info.arity]
		for j, a := range gd.args {
			switch {
			case a.bind:
				row[a.slot] = t[j]
			case a.same >= 0 && t[a.same] != t[j]:
				return nil
			}
		}
		return g.admit(plan, filters, k+1, row)
	}
	if gd.bound == 0 {
		for r := 0; r < info.rows(); r++ {
			if err := visit(r); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range g.probe(gd, row) {
		if err := visit(int(r)); err != nil {
			return err
		}
	}
	return nil
}

// block grounds ∀x̄ φ (forall) as the conjunction of its instances, or ∃x̄ φ
// as their disjunction — except that an existential outside universal scope
// encodes its variables that no guard covers as selectors. Guards (see
// guards) enumerate the covered variables' bindings from the fixed
// relations; the instances they reject ground to the block's identity and
// are never built. The remaining variables range over the domain. Every
// instance of a top-level existential is recorded for the witness.
func (g *grounder) block(vars []string, body Formula, forall, underForall bool) (int, error) {
	vars, items := gather(vars, body, forall)
	plan, filters, covered, err := g.guards(vars, items, forall)
	if err != nil {
		return 0, err
	}
	selecting := !forall && !underForall
	base, n, bbase := len(g.stack), len(g.env), len(g.binds)
	defer func() { g.stack, g.env, g.binds = g.stack[:base], g.env[:n], g.binds[:bbase] }()
	var spread []int // slots that range over the domain, per instance
	var names []string
	for i, x := range vars {
		b := binding{name: x, t: gterm{sel: -1}}
		switch {
		case covered != nil && covered[i]:
			names = append(names, x)
		case selecting:
			b.t.sel = g.selectors(x)
		default:
			spread = append(spread, i)
		}
		g.env = append(g.env, b)
	}
	if selecting && plan == nil {
		return g.junction(items, false, true)
	}
	rows := 1
	if plan != nil {
		row := make([]int, len(vars))
		if err := g.admit(plan, filters, 0, row); err != nil {
			return 0, err
		}
		rows = (len(g.binds) - bbase) / len(vars)
	}
	unit := g.trueVar
	if !forall {
		unit = -g.trueVar
	}
	for r := 0; r < rows; r++ {
		if plan != nil {
			row := g.binds[bbase+r*len(vars) : bbase+(r+1)*len(vars)]
			for i, c := range covered {
				if c {
					g.env[n+i].t.c = row[i]
				}
			}
		}
		for _, i := range spread {
			g.env[n+i].t.c = 0
		}
		for {
			in := -1
			if selecting {
				in = len(g.insts)
				g.insts = append(g.insts, instance{names: names, parent: g.cur, vals: len(g.instVals)})
				for i, c := range covered {
					if c {
						g.instVals = append(g.instVals, g.env[n+i].t.c)
					}
				}
				g.cur = in
			}
			l, err := g.junction(items, underForall || forall, !forall)
			if selecting {
				g.cur = g.insts[in].parent
				g.insts[in].lit = l
			}
			if err != nil {
				return 0, err
			}
			if l == -unit {
				return -unit, nil
			}
			if l != unit {
				g.stack = append(g.stack, l)
			}
			// Advance the domain odometer, the last slot turning fastest.
			k := len(spread) - 1
			for ; k >= 0; k-- {
				e := &g.env[n+spread[k]].t
				if e.c++; e.c < len(g.domain) {
					break
				}
				e.c = 0
			}
			if k < 0 {
				break
			}
		}
	}
	if forall {
		return g.andLit(g.stack[base:]), nil
	}
	return g.orLit(g.stack[base:]), nil
}

// andLit Tseitin-defines a literal equivalent to the conjunction of lits.
func (g *grounder) andLit(lits []int) int {
	switch len(lits) {
	case 0:
		return g.trueVar
	case 1:
		return lits[0]
	}
	a := g.solver.NewVar()
	long := g.clause[:0]
	for _, l := range lits {
		g.add(-a, l)
		long = append(long, -l)
	}
	g.clause = append(long, a)
	g.add(g.clause...)
	return a
}

// orLit Tseitin-defines a literal equivalent to the disjunction of lits.
func (g *grounder) orLit(lits []int) int {
	switch len(lits) {
	case 0:
		return -g.trueVar
	case 1:
		return lits[0]
	}
	a := g.solver.NewVar()
	long := g.clause[:0]
	for _, l := range lits {
		g.add(a, -l)
		long = append(long, l)
	}
	g.clause = append(long, -a)
	g.add(g.clause...)
	return a
}

// atomLit encodes R(t̄) where t̄ may mix constants and selector variables.
// With s distinct selector variables the encoding enumerates the |D|^s
// assignments; each contributes two clauses defining the aux literal.
func (g *grounder) atomLit(a Atom) (int, error) {
	pid, ok := g.predID[a.Pred]
	if !ok || len(a.Args) != g.preds[pid].arity {
		return 0, fmt.Errorf("fol: undeclared predicate %s/%d", a.Pred, len(a.Args))
	}
	// Resolve the arguments; slots[j] is the position of argument j's
	// selector variable among the distinct ones (in order of first
	// occurrence), or -1 for a constant.
	args, slots, sels := g.args[:0], g.slots[:0], g.sels[:0]
	for _, t := range a.Args {
		gt, err := g.term(t)
		if err != nil {
			return 0, err
		}
		slot := -1
		if gt.sel >= 0 {
			for k, x := range sels {
				if x == gt.sel {
					slot = k
				}
			}
			if slot < 0 {
				slot = len(sels)
				sels = append(sels, gt.sel)
			}
		}
		args, slots = append(args, gt), append(slots, slot)
	}
	g.args, g.slots, g.sels = args, slots, sels
	idx := append(g.idx[:0], make([]int, len(args))...)
	g.idx = idx
	for j, gt := range args {
		idx[j] = gt.c
	}
	if len(sels) == 0 {
		return g.groundAtomLit(pid, idx), nil
	}
	aux := g.solver.NewVar()
	// combo is an odometer over the selectors' domain indices, the last
	// selector turning fastest.
	combo := append(g.combo[:0], make([]int, len(sels))...)
	g.combo = combo
	for {
		if err := g.poll(); err != nil {
			return 0, err
		}
		for j, slot := range slots {
			if slot >= 0 {
				idx[j] = combo[slot]
			}
		}
		ground := g.groundAtomLit(pid, idx)
		// combo ∧ ground → aux ; combo ∧ ¬ground → ¬aux
		cl := g.clause[:0]
		for k, x := range sels {
			cl = append(cl, -g.selVars[x][combo[k]])
		}
		cl = append(cl, 0, 0)[:len(sels)] // room for the two literals below
		switch ground {
		case g.trueVar:
			g.add(append(cl, aux)...)
		case -g.trueVar:
			g.add(append(cl, -aux)...)
		default:
			g.add(append(cl, -ground, aux)...)
			g.add(append(cl, ground, -aux)...)
		}
		g.clause = cl
		k := len(combo) - 1
		for ; k >= 0; k-- {
			if combo[k]++; combo[k] < len(g.domain) {
				break
			}
			combo[k] = 0
		}
		if k < 0 {
			return aux, nil
		}
	}
}

// eqLit encodes t = u under the environment.
func (g *grounder) eqLit(e Equal) (int, error) {
	l, err := g.term(e.L)
	if err != nil {
		return 0, err
	}
	r, err := g.term(e.R)
	if err != nil {
		return 0, err
	}
	switch {
	case l.sel < 0 && r.sel < 0:
		if l.c == r.c {
			return g.trueVar, nil
		}
		return -g.trueVar, nil
	case l.sel >= 0 && r.sel < 0:
		return g.selVars[l.sel][r.c], nil
	case l.sel < 0 && r.sel >= 0:
		return g.selVars[r.sel][l.c], nil
	default:
		if l.sel == r.sel {
			return g.trueVar, nil
		}
		aux := g.solver.NewVar()
		sx, sy := g.selVars[l.sel], g.selVars[r.sel]
		for i := range g.domain {
			// sx_i ∧ sy_i → aux
			g.add(-sx[i], -sy[i], aux)
			for j := range g.domain {
				if i != j {
					// sx_i ∧ sy_j → ¬aux
					g.add(-sx[i], -sy[j], -aux)
				}
			}
		}
		return aux, nil
	}
}
