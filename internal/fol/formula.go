// Package fol implements the fragment of first-order logic the paper's
// decision procedures rest on: formulas over relational vocabulary with
// constants and equality, negation normal form, and a finite-model
// satisfiability checker for the Bernays–Schönfinkel prefix class ∃*∀*FO
// (decidable by Ramsey's small-model property, NEXPTIME-complete in general
// and Σ₂ᵖ-complete for bounded arity [Lew80]).
//
// Semantics are database-style: constants obey the unique-name assumption,
// and satisfiability is over finite structures whose domain is the constant
// symbols plus max(1, k) fresh witness elements, where k is the number of
// existential variables — exactly the bound used in the paper's proofs.
// Predicates are either fixed (closed-world finite relations, e.g. the
// product database) or free (unknown relations, e.g. the input sequence the
// decision procedure searches for).
//
// The checker grounds the sentence to CNF and decides it with the CDCL
// solver of package sat, reading witness assignments and free-predicate
// extensions back out of the model. Fixed relations drive instantiation: a
// quantifier block whose body has a guard — an atom over a fixed predicate
// conjoined under ∃, or negated and disjoined under ∀ — is instantiated
// only at the bindings the guard's tuples admit (several guards are joined
// bound-first through index probes), because every other instance grounds
// to the block's identity. An existential block outside universal scope is
// then a disjunction over its admitted bindings. Variables no guard covers
// keep the plain encoding: universal ones (and existential ones under a
// universal) are expanded over the whole domain, the other existential ones
// become "selector" booleans with exactly-one constraints.
package fol

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dlog"
	"repro/internal/relation"
)

// Formula is a first-order formula over relational atoms and equality.
// Build formulas with the constructor helpers; the zero values of the node
// types are not meaningful.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Atom is a relational atom R(t̄). Terms reuse the dlog representation.
type Atom struct {
	Pred string
	Args []dlog.Term
}

// Equal is the equality atom t = u.
type Equal struct {
	L, R dlog.Term
}

// Not is negation.
type Not struct {
	F Formula
}

// And is finite conjunction; And() is truth.
type And struct {
	Fs []Formula
}

// Or is finite disjunction; Or() is falsity.
type Or struct {
	Fs []Formula
}

// Exists is existential quantification over the listed variables.
type Exists struct {
	Vars []string
	F    Formula
}

// Forall is universal quantification over the listed variables.
type Forall struct {
	Vars []string
	F    Formula
}

func (Atom) isFormula()   {}
func (Equal) isFormula()  {}
func (Not) isFormula()    {}
func (And) isFormula()    {}
func (Or) isFormula()     {}
func (Exists) isFormula() {}
func (Forall) isFormula() {}

// AtomF builds an atom formula.
func AtomF(pred string, args ...dlog.Term) Atom { return Atom{Pred: pred, Args: args} }

// Eq builds t = u.
func Eq(l, r dlog.Term) Equal { return Equal{L: l, R: r} }

// Neq builds t ≠ u.
func Neq(l, r dlog.Term) Formula { return Not{Equal{L: l, R: r}} }

// NotF negates a formula, collapsing double negation.
func NotF(f Formula) Formula {
	if n, ok := f.(Not); ok {
		return n.F
	}
	return Not{F: f}
}

// AndF builds a conjunction, flattening nested conjunctions.
func AndF(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		if a, ok := f.(And); ok {
			out = append(out, a.Fs...)
		} else if f != nil {
			out = append(out, f)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return And{Fs: out}
}

// OrF builds a disjunction, flattening nested disjunctions.
func OrF(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		if o, ok := f.(Or); ok {
			out = append(out, o.Fs...)
		} else if f != nil {
			out = append(out, f)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return Or{Fs: out}
}

// Implies builds f → g.
func Implies(f, g Formula) Formula { return OrF(NotF(f), g) }

// ExistsF quantifies vars existentially (no-op for empty vars).
func ExistsF(vars []string, f Formula) Formula {
	if len(vars) == 0 {
		return f
	}
	return Exists{Vars: vars, F: f}
}

// ForallF quantifies vars universally (no-op for empty vars).
func ForallF(vars []string, f Formula) Formula {
	if len(vars) == 0 {
		return f
	}
	return Forall{Vars: vars, F: f}
}

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

func (e Equal) String() string { return e.L.String() + "=" + e.R.String() }

func (n Not) String() string { return "¬" + paren(n.F) }

func (a And) String() string {
	if len(a.Fs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(a.Fs))
	for i, f := range a.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " ∧ ")
}

func (o Or) String() string {
	if len(o.Fs) == 0 {
		return "⊥"
	}
	parts := make([]string, len(o.Fs))
	for i, f := range o.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " ∨ ")
}

func (e Exists) String() string {
	return "∃" + strings.Join(e.Vars, ",") + " " + paren(e.F)
}

func (f Forall) String() string {
	return "∀" + strings.Join(f.Vars, ",") + " " + paren(f.F)
}

func paren(f Formula) string {
	switch f.(type) {
	case Atom, Equal, Not:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

// NNF converts the formula to negation normal form: negations apply only to
// atoms and equalities.
func NNF(f Formula) Formula {
	switch t := f.(type) {
	case Atom, Equal:
		return t
	case And:
		out := make([]Formula, len(t.Fs))
		for i, g := range t.Fs {
			out[i] = NNF(g)
		}
		return And{Fs: out}
	case Or:
		out := make([]Formula, len(t.Fs))
		for i, g := range t.Fs {
			out[i] = NNF(g)
		}
		return Or{Fs: out}
	case Exists:
		return Exists{Vars: t.Vars, F: NNF(t.F)}
	case Forall:
		return Forall{Vars: t.Vars, F: NNF(t.F)}
	case Not:
		switch u := t.F.(type) {
		case Atom, Equal:
			return t
		case Not:
			return NNF(u.F)
		case And:
			out := make([]Formula, len(u.Fs))
			for i, g := range u.Fs {
				out[i] = NNF(Not{g})
			}
			return Or{Fs: out}
		case Or:
			out := make([]Formula, len(u.Fs))
			for i, g := range u.Fs {
				out[i] = NNF(Not{g})
			}
			return And{Fs: out}
		case Exists:
			return Forall{Vars: u.Vars, F: NNF(Not{u.F})}
		case Forall:
			return Exists{Vars: u.Vars, F: NNF(Not{u.F})}
		}
	}
	panic(fmt.Sprintf("fol: unknown formula node %T", f))
}

// Constants returns the sorted constant symbols occurring in the formula.
func Constants(f Formula) []relation.Const {
	seen := make(map[relation.Const]bool)
	walkTerms(f, func(t dlog.Term) {
		if !t.Var {
			seen[relation.Const(t.Name)] = true
		}
	})
	out := make([]relation.Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FreeVars returns the sorted free variable names of the formula.
func FreeVars(f Formula) []string {
	seen := make(map[string]bool)
	var walk func(g Formula, bound map[string]bool)
	walk = func(g Formula, bound map[string]bool) {
		switch t := g.(type) {
		case Atom:
			for _, a := range t.Args {
				if a.Var && !bound[a.Name] {
					seen[a.Name] = true
				}
			}
		case Equal:
			for _, a := range []dlog.Term{t.L, t.R} {
				if a.Var && !bound[a.Name] {
					seen[a.Name] = true
				}
			}
		case Not:
			walk(t.F, bound)
		case And:
			for _, h := range t.Fs {
				walk(h, bound)
			}
		case Or:
			for _, h := range t.Fs {
				walk(h, bound)
			}
		case Exists:
			walk(t.F, extendBound(bound, t.Vars))
		case Forall:
			walk(t.F, extendBound(bound, t.Vars))
		}
	}
	walk(f, map[string]bool{})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func extendBound(bound map[string]bool, vars []string) map[string]bool {
	next := make(map[string]bool, len(bound)+len(vars))
	for k := range bound {
		next[k] = true
	}
	for _, v := range vars {
		next[v] = true
	}
	return next
}

// Preds returns the predicate names and arities used in the formula.
func Preds(f Formula) map[string]int {
	out := make(map[string]int)
	var walk func(g Formula)
	walk = func(g Formula) {
		switch t := g.(type) {
		case Atom:
			out[t.Pred] = len(t.Args)
		case Equal:
		case Not:
			walk(t.F)
		case And:
			for _, h := range t.Fs {
				walk(h)
			}
		case Or:
			for _, h := range t.Fs {
				walk(h)
			}
		case Exists:
			walk(t.F)
		case Forall:
			walk(t.F)
		}
	}
	walk(f)
	return out
}

func walkTerms(f Formula, visit func(dlog.Term)) {
	switch t := f.(type) {
	case Atom:
		for _, a := range t.Args {
			visit(a)
		}
	case Equal:
		visit(t.L)
		visit(t.R)
	case Not:
		walkTerms(t.F, visit)
	case And:
		for _, g := range t.Fs {
			walkTerms(g, visit)
		}
	case Or:
		for _, g := range t.Fs {
			walkTerms(g, visit)
		}
	case Exists:
		walkTerms(t.F, visit)
	case Forall:
		walkTerms(t.F, visit)
	}
}

// RenameBound returns an alpha-renamed copy of the formula in which every
// bound variable is unique (freshened with a numeric suffix). The grounder
// requires this so that selector tables never collide.
func RenameBound(f Formula) Formula {
	counter := 0
	var walk func(g Formula, env map[string]string) Formula
	sub := func(t dlog.Term, env map[string]string) dlog.Term {
		if t.Var {
			if n, ok := env[t.Name]; ok {
				return dlog.V(n)
			}
		}
		return t
	}
	walk = func(g Formula, env map[string]string) Formula {
		switch t := g.(type) {
		case Atom:
			args := make([]dlog.Term, len(t.Args))
			for i, a := range t.Args {
				args[i] = sub(a, env)
			}
			return Atom{Pred: t.Pred, Args: args}
		case Equal:
			return Equal{L: sub(t.L, env), R: sub(t.R, env)}
		case Not:
			return Not{F: walk(t.F, env)}
		case And:
			out := make([]Formula, len(t.Fs))
			for i, h := range t.Fs {
				out[i] = walk(h, env)
			}
			return And{Fs: out}
		case Or:
			out := make([]Formula, len(t.Fs))
			for i, h := range t.Fs {
				out[i] = walk(h, env)
			}
			return Or{Fs: out}
		case Exists:
			nenv, nvars := freshen(env, t.Vars, &counter)
			return Exists{Vars: nvars, F: walk(t.F, nenv)}
		case Forall:
			nenv, nvars := freshen(env, t.Vars, &counter)
			return Forall{Vars: nvars, F: walk(t.F, nenv)}
		}
		panic(fmt.Sprintf("fol: unknown formula node %T", g))
	}
	return walk(f, map[string]string{})
}

func freshen(env map[string]string, vars []string, counter *int) (map[string]string, []string) {
	nenv := make(map[string]string, len(env)+len(vars))
	for k, v := range env {
		nenv[k] = v
	}
	nvars := make([]string, len(vars))
	for i, v := range vars {
		*counter++
		nv := fmt.Sprintf("%s#%d", v, *counter)
		nenv[v] = nv
		nvars[i] = nv
	}
	return nenv, nvars
}

// CheckBS verifies the formula (assumed NNF, bound-renamed) lies in the
// Bernays–Schönfinkel class: no existential quantifier occurs in the scope
// of a universal quantifier. It returns the number of existential variables.
func CheckBS(f Formula) (int, error) {
	count := 0
	var walk func(g Formula, underForall bool) error
	walk = func(g Formula, underForall bool) error {
		switch t := g.(type) {
		case Atom, Equal:
			return nil
		case Not:
			return walk(t.F, underForall)
		case And:
			for _, h := range t.Fs {
				if err := walk(h, underForall); err != nil {
					return err
				}
			}
			return nil
		case Or:
			for _, h := range t.Fs {
				if err := walk(h, underForall); err != nil {
					return err
				}
			}
			return nil
		case Exists:
			if underForall {
				return fmt.Errorf("fol: ∃%v under a universal quantifier: not in ∃*∀*FO", t.Vars)
			}
			count += len(t.Vars)
			return walk(t.F, underForall)
		case Forall:
			return walk(t.F, true)
		}
		return fmt.Errorf("fol: unknown formula node %T", g)
	}
	if err := walk(f, false); err != nil {
		return 0, err
	}
	return count, nil
}

// outerExistentials lists the existential variables not in the scope of a
// universal quantifier (assumes NNF), in formula order.
func outerExistentials(f Formula) []string {
	var out []string
	var walk func(g Formula)
	walk = func(g Formula) {
		switch t := g.(type) {
		case Not:
			walk(t.F)
		case And:
			for _, h := range t.Fs {
				walk(h)
			}
		case Or:
			for _, h := range t.Fs {
				walk(h)
			}
		case Exists:
			out = append(out, t.Vars...)
			walk(t.F)
		}
	}
	walk(f)
	return out
}

// Eval evaluates a closed formula (no free variables after env) over finite
// structure: fixed predicate extensions plus an explicit finite domain.
// Quantifiers range over the domain. It is the reference semantics used by
// the property tests.
func Eval(f Formula, rels map[string]*relation.Rel, domain []relation.Const, env map[string]relation.Const) bool {
	switch t := f.(type) {
	case Atom:
		tup := make(relation.Tuple, len(t.Args))
		for i, a := range t.Args {
			if a.Var {
				tup[i] = env[a.Name]
			} else {
				tup[i] = relation.Const(a.Name)
			}
		}
		return rels[t.Pred].Has(tup)
	case Equal:
		l, r := termVal(t.L, env), termVal(t.R, env)
		return l == r
	case Not:
		return !Eval(t.F, rels, domain, env)
	case And:
		for _, g := range t.Fs {
			if !Eval(g, rels, domain, env) {
				return false
			}
		}
		return true
	case Or:
		for _, g := range t.Fs {
			if Eval(g, rels, domain, env) {
				return true
			}
		}
		return false
	case Exists:
		return evalQuant(t.Vars, t.F, rels, domain, env, false)
	case Forall:
		return evalQuant(t.Vars, t.F, rels, domain, env, true)
	}
	panic(fmt.Sprintf("fol: unknown formula node %T", f))
}

func evalQuant(vars []string, body Formula, rels map[string]*relation.Rel, domain []relation.Const, env map[string]relation.Const, forall bool) bool {
	if len(vars) == 0 {
		return Eval(body, rels, domain, env)
	}
	v, rest := vars[0], vars[1:]
	old, had := env[v]
	defer func() {
		if had {
			env[v] = old
		} else {
			delete(env, v)
		}
	}()
	for _, d := range domain {
		env[v] = d
		r := evalQuant(rest, body, rels, domain, env, forall)
		if forall && !r {
			return false
		}
		if !forall && r {
			return true
		}
	}
	return forall
}

func termVal(t dlog.Term, env map[string]relation.Const) relation.Const {
	if t.Var {
		return env[t.Name]
	}
	return relation.Const(t.Name)
}
