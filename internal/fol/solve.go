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
	var nExists int
	if p.FiniteDomain {
		nExists = countOuterExistentials(f)
	} else {
		var err error
		nExists, err = CheckBS(f)
		if err != nil {
			return nil, err
		}
	}
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
		w = nExists
		if w == 0 {
			w = 1
		}
	}
	for i := 1; i <= w; i++ {
		domain = append(domain, relation.Const(fmt.Sprintf("%s%d", WitnessPrefix, i)))
	}

	g := newGrounder(p, preds, domain)
	root, err := g.lit(f, false)
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
	// Extract existential witnesses.
	res.Witness = make(map[string]relation.Const)
	for id, vars := range g.selVars {
		for i, v := range vars {
			if g.solver.Value(v) {
				res.Witness[g.selNames[id]] = domain[i]
				break
			}
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
// extension is an index set of packed atom keys, built once per Solve.
type predInfo struct {
	name      string
	arity     int
	fixed     bool
	facts     map[uint64]struct{}
	wideFacts map[string]struct{}
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

	// env is the variable environment, a stack: quantifiers push their
	// bindings and pop them when their scope is grounded.
	env []binding
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
					if g.wide {
						info.wideFacts[string(g.wideKey(pid, idx))] = struct{}{}
					} else {
						info.facts[g.packedKey(pid, idx)] = struct{}{}
					}
					return true
				})
			}
		}
		g.preds = append(g.preds, info)
	}
	g.trueVar = g.solver.NewVar()
	g.add(g.trueVar)
	return g
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

// groundAtomLit returns the literal for a fully ground atom pid(idx…): a
// truth constant for fixed predicates, a cached SAT variable for free ones.
func (g *grounder) groundAtomLit(pid int, idx []int) int {
	info := &g.preds[pid]
	if g.wide {
		key := g.wideKey(pid, idx)
		if info.fixed {
			if _, ok := info.wideFacts[string(key)]; ok {
				return g.trueVar
			}
			return -g.trueVar
		}
		if v, ok := g.wideAtoms[string(key)]; ok {
			return v
		}
		v := g.solver.NewVar()
		g.wideAtoms[string(key)] = v
		return v
	}
	key := g.packedKey(pid, idx)
	if info.fixed {
		if _, ok := info.facts[key]; ok {
			return g.trueVar
		}
		return -g.trueVar
	}
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
		return g.expand(t.Vars, t.F, true)
	case Exists:
		if underForall {
			return g.expand(t.Vars, t.F, false)
		}
		n := len(g.env)
		for _, x := range t.Vars {
			g.env = append(g.env, binding{name: x, t: gterm{sel: g.selectors(x)}})
		}
		l, err := g.lit(t.F, underForall)
		g.env = g.env[:n]
		return l, err
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

// expand grounds ∀x̄ φ (forall) as the conjunction, or ∃x̄ φ as the
// disjunction, over all domain assignments of x̄ — the latter under
// universal scope, where selector encoding is unsound. Every instance is
// grounded before the constants are simplified away.
func (g *grounder) expand(vars []string, body Formula, forall bool) (int, error) {
	base, n := len(g.stack), len(g.env)
	defer func() { g.stack, g.env = g.stack[:base], g.env[:n] }()
	for _, x := range vars {
		g.env = append(g.env, binding{name: x, t: gterm{sel: -1}})
	}
	if err := g.instances(vars, body, n, 0); err != nil {
		return 0, err
	}
	unit := g.trueVar
	if !forall {
		unit = -g.trueVar
	}
	kept := g.stack[base:base]
	for _, l := range g.stack[base:] {
		if l == unit {
			continue
		}
		if l == -unit {
			return -unit, nil
		}
		kept = append(kept, l)
	}
	if forall {
		return g.andLit(kept), nil
	}
	return g.orLit(kept), nil
}

// instances grounds body under every domain assignment of vars[i:], whose
// bindings sit at env[n+i:], pushing one literal per instance.
func (g *grounder) instances(vars []string, body Formula, n, i int) error {
	if i == len(vars) {
		l, err := g.lit(body, true)
		if err != nil {
			return err
		}
		g.stack = append(g.stack, l)
		return nil
	}
	for d := range g.domain {
		g.env[n+i].t.c = d
		if err := g.instances(vars, body, n, i+1); err != nil {
			return err
		}
	}
	return nil
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
