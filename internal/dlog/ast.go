// Package dlog implements the rule language of the paper: nonrecursive
// semipositive datalog with inequality (datalog¬,≠), used for transducer
// output rules and error rules, plus the cumulative ("+:-") state rules of
// the Spocus model. The package provides an AST, a parser for the paper's
// concrete syntax, structural validity checks, and a bottom-up evaluator.
//
// By convention (as in Prolog), identifiers beginning with an upper-case
// letter are variables and all other identifiers are constants. The paper's
// examples write variables as X, Y and constants such as past-order or 855;
// hyphens are legal inside identifiers.
package dlog

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"repro/internal/relation"
)

// Term is a variable or a constant appearing in an atom.
type Term struct {
	// Var is true when the term is a variable.
	Var bool
	// Name is the variable name or the constant symbol.
	Name string
}

// V constructs a variable term.
func V(name string) Term { return Term{Var: true, Name: name} }

// C constructs a constant term.
func C(name string) Term { return Term{Var: false, Name: name} }

func (t Term) String() string {
	if !t.Var && !bareConstant(t.Name) && !strings.ContainsAny(t.Name, "'\n") {
		return "'" + t.Name + "'"
	}
	return t.Name
}

// bareConstant reports whether a constant symbol re-lexes as itself when
// printed without quotes: a nonempty lower-case-or-digit-led identifier that
// is not the NOT keyword. Anything else (quoted constants like 'Time' or
// 'a b', and the empty constant, printed as two single quotes) must print
// quoted or it would lex as a variable, a keyword, or not at all.
func bareConstant(name string) bool {
	if name == "" || strings.EqualFold(name, "not") {
		return false
	}
	for i, r := range name {
		if i == 0 {
			if !(unicode.IsLetter(r) || unicode.IsDigit(r)) || unicode.IsUpper(r) {
				return false
			}
			continue
		}
		if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '*' || r == '\'') {
			return false
		}
	}
	return true
}

// Atom is a predicate applied to a list of terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Vars returns the variable names of the atom in order of first occurrence.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.Var && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// LitKind distinguishes the forms a body literal may take.
type LitKind int

const (
	// LitPos is a positive relational atom R(t̄).
	LitPos LitKind = iota
	// LitNeg is a negated relational atom NOT R(t̄).
	LitNeg
	// LitNeq is an inequality t ≠ u.
	LitNeq
	// LitEq is an equality t = u (a convenience beyond the paper's ≠;
	// it is eliminable by substitution and accepted by the checker).
	LitEq
)

// Literal is one conjunct of a rule body.
type Literal struct {
	Kind LitKind
	// Atom is set for LitPos and LitNeg.
	Atom Atom
	// Left and Right are set for LitNeq and LitEq.
	Left, Right Term
}

// Pos builds a positive literal.
func Pos(a Atom) Literal { return Literal{Kind: LitPos, Atom: a} }

// Neg builds a negated literal.
func Neg(a Atom) Literal { return Literal{Kind: LitNeg, Atom: a} }

// Neq builds an inequality literal.
func Neq(l, r Term) Literal { return Literal{Kind: LitNeq, Left: l, Right: r} }

// Eq builds an equality literal.
func Eq(l, r Term) Literal { return Literal{Kind: LitEq, Left: l, Right: r} }

func (l Literal) String() string {
	switch l.Kind {
	case LitPos:
		return l.Atom.String()
	case LitNeg:
		return "NOT " + l.Atom.String()
	case LitNeq:
		return l.Left.String() + " <> " + l.Right.String()
	case LitEq:
		return l.Left.String() + " = " + l.Right.String()
	}
	return "?"
}

// Vars returns the variable names occurring in the literal.
func (l Literal) Vars() []string {
	switch l.Kind {
	case LitPos, LitNeg:
		return l.Atom.Vars()
	default:
		var out []string
		if l.Left.Var {
			out = append(out, l.Left.Name)
		}
		if l.Right.Var && l.Right.Name != l.Left.Name {
			out = append(out, l.Right.Name)
		}
		return out
	}
}

// Rule is a single datalog rule. Cumulative marks the "+:-" state rules of
// the Spocus model, whose head relation accumulates derived facts across
// transducer steps instead of being recomputed.
type Rule struct {
	Head       Atom
	Body       []Literal
	Cumulative bool
}

func (r Rule) String() string {
	op := ":-"
	if r.Cumulative {
		op = "+:-"
	}
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " " + op + " " + strings.Join(parts, ", ") + "."
}

// Vars returns all variable names of the rule in order of first occurrence.
func (r Rule) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(r.Head.Vars())
	for _, l := range r.Body {
		add(l.Vars())
	}
	return out
}

// PositiveVars returns the variables occurring in positive body atoms.
func (r Rule) PositiveVars() map[string]bool {
	out := make(map[string]bool)
	for _, l := range r.Body {
		if l.Kind == LitPos {
			for _, v := range l.Atom.Vars() {
				out[v] = true
			}
		}
	}
	return out
}

// Program is a list of rules evaluated together.
type Program []Rule

func (p Program) String() string {
	parts := make([]string, len(p))
	for i, r := range p {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// HeadPreds returns the set of predicates defined by the program's rule
// heads, sorted.
func (p Program) HeadPreds() []string {
	seen := make(map[string]bool)
	for _, r := range p {
		seen[r.Head.Pred] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RulesFor returns the rules whose head predicate is pred, in program order.
func (p Program) RulesFor(pred string) Program {
	var out Program
	for _, r := range p {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// Constants returns the sorted constant symbols occurring in the program.
func (p Program) Constants() []relation.Const {
	seen := make(map[relation.Const]bool)
	addT := func(t Term) {
		if !t.Var {
			seen[relation.Const(t.Name)] = true
		}
	}
	for _, r := range p {
		for _, t := range r.Head.Args {
			addT(t)
		}
		for _, l := range r.Body {
			switch l.Kind {
			case LitPos, LitNeg:
				for _, t := range l.Atom.Args {
					addT(t)
				}
			default:
				addT(l.Left)
				addT(l.Right)
			}
		}
	}
	out := make([]relation.Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rename returns a copy of the program with every predicate name mapped
// through f (applied to heads and body atoms alike).
func (p Program) Rename(f func(string) string) Program {
	out := make(Program, len(p))
	for i, r := range p {
		nr := Rule{Head: Atom{Pred: f(r.Head.Pred), Args: append([]Term(nil), r.Head.Args...)}, Cumulative: r.Cumulative}
		for _, l := range r.Body {
			nl := l
			if l.Kind == LitPos || l.Kind == LitNeg {
				nl.Atom = Atom{Pred: f(l.Atom.Pred), Args: append([]Term(nil), l.Atom.Args...)}
			}
			nr.Body = append(nr.Body, nl)
		}
		out[i] = nr
	}
	return out
}

// SafetyError describes a violation of the range-restriction requirement:
// every variable of a rule must occur in a positive body atom.
type SafetyError struct {
	Rule Rule
	Var  string
}

func (e *SafetyError) Error() string {
	return fmt.Sprintf("unsafe rule %q: variable %s does not occur in a positive body literal", e.Rule, e.Var)
}

// CheckSafe verifies range restriction for every rule of the program.
func (p Program) CheckSafe() error {
	for _, r := range p {
		pos := r.PositiveVars()
		for _, v := range r.Vars() {
			if !pos[v] {
				return &SafetyError{Rule: r, Var: v}
			}
		}
	}
	return nil
}
