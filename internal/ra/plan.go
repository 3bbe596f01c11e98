package ra

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dlog"
	"repro/internal/relation"
)

// CompileError reports a program the planner cannot lower: unsafe rules
// (a head or negation variable never bound by a positive literal), head
// arity conflicts (which the tree evaluator would panic on), or programs
// with no stratification. Package core turns it into a construction error,
// so a machine that exists can always step.
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "ra: " + e.Msg }

// opKind enumerates the executor's operators. A rule body compiles to a
// pipeline of these; the executor nests them as pull loops, so a scan
// streams bindings downward and everything after it is a per-row filter or
// a further nested scan — no intermediate relation is ever materialized.
type opKind int

const (
	// opScan iterates a relation, checking bound argument positions and
	// binding the free ones (selection + projection fused into the join).
	opScan opKind = iota
	// opProbe is a semijoin: every argument is bound, so the positive
	// literal reduces to a membership test.
	opProbe
	// opAnti is an anti-semijoin for a negated literal: every argument is
	// bound and the probe must miss.
	opAnti
	// opFilterNeq checks an inequality between two resolved terms.
	opFilterNeq
	// opFilterEq checks an equality between two resolved terms.
	opFilterEq
	// opBindEq binds a free variable to the other (resolved) side of an
	// equality literal.
	opBindEq
)

func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opProbe:
		return "probe"
	case opAnti:
		return "anti"
	case opFilterNeq:
		return "filter≠"
	case opFilterEq:
		return "filter="
	case opBindEq:
		return "bind="
	}
	return "?"
}

// argSpec describes one argument position of a compiled atom. Exactly one
// of the three roles applies: a pre-interned constant, a register that is
// already bound at this point in the pipeline (an equality check), or a
// register this operator binds (a projection into the register frame).
type argSpec struct {
	constArg bool
	sym      uint32 // interned constant, when constArg
	reg      int    // register index, when !constArg
	bound    bool   // register already holds a value here (check, don't bind)
}

// op is one operator of a rule pipeline.
type op struct {
	kind opKind
	slot int32     // opScan/opProbe/opAnti: the predicate's slot
	args []argSpec // opScan/opProbe/opAnti
	// useIndex marks a scan whose first argument is resolved at this point,
	// so the executor probes the first-column hash index instead of
	// iterating the whole relation.
	useIndex bool
	// left/right are the operands of comparison/binding ops. For opBindEq,
	// left is the side being bound (a free register) and right is resolved.
	left, right argSpec
}

// emitSpec is the head projection: how to assemble the derived tuple from
// the register frame once every body operator accepted.
type emitSpec struct {
	slot  int32
	arity int
	args  []argSpec // constArg or bound register, never free
}

// compiledRule is one rule lowered to a pipeline.
type compiledRule struct {
	src   dlog.Rule
	nRegs int
	ops   []op
	head  emitSpec
}

// stratum groups the rules evaluated together in one fixpoint round.
type stratum struct {
	preds []string
	rules []*compiledRule
	// recursive marks a stratum with an intra-stratum positive reference;
	// non-recursive strata converge in a single pass.
	recursive bool
}

// Plan is a compiled program: strata of rule pipelines sharing an intern
// table. Plans are immutable after Compile and safe for concurrent Eval.
type Plan struct {
	strata   []stratum
	interner *Interner
	maxRegs  int
	// names is the intern table's slot -> predicate table as of the end of
	// compilation: every slot an operator or head of this plan carries is
	// below len(names), which sizes the executor's per-slot frames.
	names []string
	// noShadow disables the derived-shadows-EDB read rule: body references
	// always read the EDB. State programs compile this way — a state rule
	// body reads the previous state by construction (the tree-walking
	// oracle gets the same effect by tagging heads with a reserved prefix).
	noShadow bool
	// needs records, by slot, which iRel access structures this plan's
	// operators use (membership set for probes, first-column index for
	// indexed scans). The interned-relation cache pre-builds exactly these
	// at intern time, keeping cached iRels immutable afterwards and so
	// safe for concurrent Evals.
	needs []uint8
	// cumulative marks, by slot, the heads some rule derives with
	// cumulative (+:-) semantics.
	cumulative []bool
}

// Access-structure need flags, stored per slot in Plan.needs.
const (
	needSet uint8 = 1 << iota
	needIdx
)

// CumulativeHeads returns, by slot, the heads some rule of the plan derives
// with cumulative (+:-) semantics — what Store.Merge keeps. The slice is
// shared and must not be modified.
func (p *Plan) CumulativeHeads() []bool { return p.cumulative }

// Interner exposes the plan's constant table (shared per machine/store).
func (p *Plan) Interner() *Interner { return p.interner }

// Compile lowers a program into a Plan. The intern table may be shared
// across plans (pass nil for a private one). Compilation stratifies the
// program, orders each rule body with the join-order planner, allocates
// registers for variables, and pre-interns every rule constant.
//
// inputs names the predicates that hold one step's input — a handful of
// tuples, where every other relation may have grown all run. The planner
// opens a join from one of them when it can (see compileRule); the answer
// is the same either way.
func Compile(prog dlog.Program, in *Interner, inputs ...string) (*Plan, error) {
	return compile(prog, in, false, inputs)
}

// CompileNoShadow compiles a program whose body references must always read
// the EDB, never this evaluation's derived tuples — the semantics of a
// machine's state program, whose rules read the previous state while
// deriving the next. The whole program is one single-pass stratum: with
// reads pinned to the EDB no rule sees another's output, so there is no
// dependency order to respect, a second pass can derive nothing new, and a
// body may negate its own head (on :- tick, NOT on is temporal, not cyclic).
func CompileNoShadow(prog dlog.Program, in *Interner, inputs ...string) (*Plan, error) {
	return compile(prog, in, true, inputs)
}

func compile(prog dlog.Program, in *Interner, noShadow bool, inputs []string) (*Plan, error) {
	if in == nil {
		in = NewInterner()
	}
	isInput := make(map[string]bool, len(inputs))
	for _, name := range inputs {
		isInput[name] = true
	}
	var strataPreds [][]string
	if noShadow {
		strataPreds = [][]string{prog.HeadPreds()}
	} else {
		var err error
		if strataPreds, err = dlog.Stratify(prog); err != nil {
			return nil, &CompileError{Msg: err.Error()}
		}
	}
	headArity := make(map[string]int)
	for _, r := range prog {
		if a, ok := headArity[r.Head.Pred]; ok && a != len(r.Head.Args) {
			return nil, &CompileError{Msg: fmt.Sprintf("head %s derived with arities %d and %d", r.Head.Pred, a, len(r.Head.Args))}
		}
		headArity[r.Head.Pred] = len(r.Head.Args)
	}
	p := &Plan{interner: in, noShadow: noShadow}
	for _, preds := range strataPreds {
		st := stratum{preds: preds}
		inStratum := make(map[string]bool, len(preds))
		for _, pr := range preds {
			inStratum[pr] = true
		}
		// Rule order matters observationally: once a predicate has derived
		// tuples it shadows its EDB relation, so which rules fired earlier
		// in the pass determines what later rules in the same pass read.
		// Mirror EvalStratified exactly: stratum predicates in Stratify's
		// order, each predicate's rules in program order.
		for _, pr := range preds {
			for _, r := range prog {
				if r.Head.Pred != pr {
					continue
				}
				cr, err := compileRule(r, in, isInput)
				if err != nil {
					return nil, err
				}
				st.rules = append(st.rules, cr)
				if cr.nRegs > p.maxRegs {
					p.maxRegs = cr.nRegs
				}
				// An intra-stratum positive reference forces fixpoint
				// iteration — unless reads are pinned to the EDB, in which
				// case a second pass can never see the new tuples anyway.
				if !noShadow {
					for _, l := range r.Body {
						if l.Kind == dlog.LitPos && inStratum[l.Atom.Pred] {
							st.recursive = true
						}
					}
				}
			}
		}
		p.strata = append(p.strata, st)
	}
	p.names = in.predNames()
	p.needs = make([]uint8, len(p.names))
	p.cumulative = make([]bool, len(p.names))
	for _, st := range p.strata {
		for _, cr := range st.rules {
			if cr.src.Cumulative {
				p.cumulative[cr.head.slot] = true
			}
			for _, o := range cr.ops {
				switch o.kind {
				case opProbe, opAnti:
					p.needs[o.slot] |= needSet
				case opScan:
					if o.useIndex {
						p.needs[o.slot] |= needIdx
					}
				}
			}
		}
	}
	plansCompiled.Add(1)
	return p, nil
}

// ruleCtx tracks register allocation and boundness while planning one rule.
type ruleCtx struct {
	regs  map[string]int
	bound map[string]bool
	in    *Interner
}

func (rc *ruleCtx) reg(name string) int {
	if r, ok := rc.regs[name]; ok {
		return r
	}
	r := len(rc.regs)
	rc.regs[name] = r
	return r
}

// termSpec resolves a term to an argSpec under the current boundness.
func (rc *ruleCtx) termSpec(t dlog.Term) argSpec {
	if !t.Var {
		return argSpec{constArg: true, sym: rc.in.ID(relation.Const(t.Name))}
	}
	return argSpec{reg: rc.reg(t.Name), bound: rc.bound[t.Name]}
}

// resolved reports whether the term denotes a value here (const or bound).
func (rc *ruleCtx) resolved(t dlog.Term) bool {
	return !t.Var || rc.bound[t.Name]
}

// compileRule plans one rule: orders the body with the join-order planner
// and lowers each literal to an operator against the running register
// frame. isInput marks the step's input predicates (see Compile).
func compileRule(r dlog.Rule, in *Interner, isInput map[string]bool) (*compiledRule, error) {
	rc := &ruleCtx{regs: map[string]int{}, bound: map[string]bool{}, in: in}
	pending := make([]dlog.Literal, len(r.Body))
	copy(pending, r.Body)
	var ops []op

	place := func(l dlog.Literal) {
		switch l.Kind {
		case dlog.LitPos:
			allBound := true
			for _, a := range l.Atom.Args {
				if !rc.resolved(a) {
					allBound = false
				}
			}
			args := make([]argSpec, len(l.Atom.Args))
			for i, a := range l.Atom.Args {
				args[i] = rc.termSpec(a)
				if a.Var {
					rc.bound[a.Name] = true
				}
			}
			if allBound {
				ops = append(ops, op{kind: opProbe, slot: in.slot(l.Atom.Pred), args: args})
				return
			}
			useIndex := len(args) > 0 && (args[0].constArg || args[0].bound)
			ops = append(ops, op{kind: opScan, slot: in.slot(l.Atom.Pred), args: args, useIndex: useIndex})
		case dlog.LitNeg:
			args := make([]argSpec, len(l.Atom.Args))
			for i, a := range l.Atom.Args {
				args[i] = rc.termSpec(a)
			}
			ops = append(ops, op{kind: opAnti, slot: in.slot(l.Atom.Pred), args: args})
		case dlog.LitNeq:
			ops = append(ops, op{kind: opFilterNeq, left: rc.termSpec(l.Left), right: rc.termSpec(l.Right)})
		case dlog.LitEq:
			lres, rres := rc.resolved(l.Left), rc.resolved(l.Right)
			switch {
			case lres && rres:
				ops = append(ops, op{kind: opFilterEq, left: rc.termSpec(l.Left), right: rc.termSpec(l.Right)})
			case rres: // bind left from right
				right := rc.termSpec(l.Right)
				rc.bound[l.Left.Name] = true
				ops = append(ops, op{kind: opBindEq, left: rc.termSpec(l.Left), right: right})
			default: // bind right from left
				left := rc.termSpec(l.Left)
				rc.bound[l.Right.Name] = true
				ops = append(ops, op{kind: opBindEq, left: rc.termSpec(l.Right), right: left})
			}
		}
	}

	// evaluable reports whether a non-positive literal can run now: negated
	// atoms and inequalities need every variable resolved; an equality needs
	// one side.
	evaluable := func(l dlog.Literal) bool {
		switch l.Kind {
		case dlog.LitNeg, dlog.LitNeq:
			for _, v := range l.Vars() {
				if !rc.bound[v] {
					return false
				}
			}
			return true
		case dlog.LitEq:
			return rc.resolved(l.Left) || rc.resolved(l.Right)
		}
		return false
	}

	for len(pending) > 0 {
		// 1. Discharge every filter/bind that is evaluable, cheapest first:
		// they prune the stream before the next (more expensive) join.
		progressed := true
		for progressed {
			progressed = false
			for i := 0; i < len(pending); i++ {
				l := pending[i]
				if l.Kind != dlog.LitPos && evaluable(l) {
					place(l)
					pending = append(pending[:i], pending[i+1:]...)
					progressed = true
					i--
				}
			}
		}
		if len(pending) == 0 {
			break
		}
		// 2. Pick the next join by the bound-variable/cardinality heuristic:
		// most resolved argument positions first (selections cut hardest),
		// then an input predicate before any other (it is the one relation
		// known to be small: without this a rule's first pick, which has
		// nothing bound, opens with a scan of state that grows all run),
		// then availability of the first-column index, then fewer free
		// variables (a proxy for output cardinality), then author order.
		best, bestKey := -1, [4]int{-1, -1, -1, -1}
		for i, l := range pending {
			if l.Kind != dlog.LitPos {
				continue
			}
			boundArgs, free := 0, 0
			seen := map[string]bool{}
			for _, a := range l.Atom.Args {
				if rc.resolved(a) {
					boundArgs++
				} else if !seen[a.Name] {
					seen[a.Name] = true
					free++
				}
			}
			idx := 0
			if len(l.Atom.Args) > 0 && rc.resolved(l.Atom.Args[0]) {
				idx = 1
			}
			input := 0
			if isInput[l.Atom.Pred] {
				input = 1
			}
			key := [4]int{boundArgs, input, idx, -free}
			if best == -1 || slices.Compare(key[:], bestKey[:]) > 0 {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			// Only unevaluable negations/comparisons remain: unsafe rule.
			return nil, &CompileError{Msg: fmt.Sprintf("unsafe rule %q: literal %q has variables no positive literal binds", r, pending[0])}
		}
		place(pending[best])
		pending = append(pending[:best], pending[best+1:]...)
	}

	head := emitSpec{slot: in.slot(r.Head.Pred), arity: len(r.Head.Args)}
	for _, a := range r.Head.Args {
		if a.Var && !rc.bound[a.Name] {
			return nil, &CompileError{Msg: fmt.Sprintf("unsafe rule %q: head variable %s unbound", r, a.Name)}
		}
		head.args = append(head.args, rc.termSpec(a))
	}
	return &compiledRule{src: r, nRegs: len(rc.regs), ops: ops, head: head}, nil
}

// Explain renders the plan tree for inspection (the /debug/plan endpoint).
// Registers print as $n, interned constants by their symbol text.
func (p *Plan) Explain() string {
	var b strings.Builder
	for si, st := range p.strata {
		fix := "single-pass"
		if st.recursive {
			fix = "fixpoint"
		}
		fmt.Fprintf(&b, "stratum %d (%s): %s\n", si, fix, strings.Join(st.preds, ", "))
		for _, cr := range st.rules {
			fmt.Fprintf(&b, "  rule %s\n", cr.src)
			fmt.Fprintf(&b, "    emit %s\n", p.fmtEmit(cr.head))
			for _, o := range cr.ops {
				fmt.Fprintf(&b, "    %s\n", p.fmtOp(o))
			}
		}
	}
	return b.String()
}

func (p *Plan) fmtArg(a argSpec) string {
	if a.constArg {
		return fmt.Sprintf("%q", string(p.interner.Sym(a.sym)))
	}
	if a.bound {
		return fmt.Sprintf("$%d", a.reg)
	}
	return fmt.Sprintf("→$%d", a.reg)
}

func (p *Plan) fmtOp(o op) string {
	switch o.kind {
	case opScan, opProbe, opAnti:
		parts := make([]string, len(o.args))
		for i, a := range o.args {
			parts[i] = p.fmtArg(a)
		}
		idx := ""
		if o.useIndex {
			idx = " [index:first]"
		}
		return fmt.Sprintf("%s %s(%s)%s", o.kind, p.names[o.slot], strings.Join(parts, ", "), idx)
	case opFilterNeq:
		return fmt.Sprintf("filter %s ≠ %s", p.fmtArg(o.left), p.fmtArg(o.right))
	case opFilterEq:
		return fmt.Sprintf("filter %s = %s", p.fmtArg(o.left), p.fmtArg(o.right))
	case opBindEq:
		return fmt.Sprintf("bind %s = %s", p.fmtArg(o.left), p.fmtArg(o.right))
	}
	return "?"
}

func (p *Plan) fmtEmit(e emitSpec) string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = p.fmtArg(a)
	}
	return fmt.Sprintf("%s(%s)", p.names[e.slot], strings.Join(parts, ", "))
}
