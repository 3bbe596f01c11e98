package core

import (
	"fmt"
	"strings"

	"repro/internal/dlog"
	"repro/internal/relation"
)

// ParseProgram parses a transducer program in the paper's concrete syntax:
//
//	transducer short
//	schema
//	  database: price/2, available/1;
//	  input: order/1, pay/2;
//	  state: past-order/1, past-pay/2;
//	  output: sendbill/2, deliver/1;
//	  log: sendbill, pay, deliver;
//	state rules
//	  past-order(X) +:- order(X);
//	  past-pay(X,Y) +:- pay(X,Y);
//	output rules
//	  sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y);
//	  deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y);
//
// Arity suffixes ("/2") are optional: unannotated declarations take their
// arity from the first use in a rule. The headers "schema" and "relations"
// are interchangeable, as in the paper's two examples. The kind of machine
// constructed is chosen by the state rules: exactly the implicit past-R
// cumulation rules yield a Spocus machine; additional positive cumulative
// rules yield an extended machine; anything else yields a general machine.
func ParseProgram(src string) (*Machine, error) {
	p := &progParser{lex: dlog.NewLexer(src)}
	return p.parse()
}

// MustParseProgram parses a transducer program and panics on error; intended
// for the statically-known programs in internal/models and tests.
func MustParseProgram(src string) *Machine {
	m, err := ParseProgram(src)
	if err != nil {
		panic(fmt.Sprintf("core: parse transducer: %v", err))
	}
	return m
}

type progParser struct {
	lex  *dlog.Lexer
	name string

	decls map[string]*sectionDecl // section keyword -> declarations
	log   []string

	stateRules  dlog.Program
	outputRules dlog.Program
}

type sectionDecl struct {
	names   []string
	arities map[string]int // -1 if unannotated
}

func (p *progParser) parse() (*Machine, error) {
	l := p.lex
	p.decls = map[string]*sectionDecl{}
	if l.AcceptKeyword("transducer") {
		t, err := l.Expect(dlog.TokIdent)
		if err != nil {
			return nil, err
		}
		p.name = t.Text
		// Allow a version marker such as "0" on the same line (the paper
		// prints a superscript after the name); skip a stray identifier that
		// is immediately followed by a section keyword.
	}
	// Optional "schema" / "relations" header.
	if !l.AcceptKeyword("schema") {
		l.AcceptKeyword("relations")
	}
	// Sections: declaration lists ("input: ...;") and rule sections
	// ("state rules", "output rules"), in any order.
sections:
	for {
		tok := l.Tok()
		if tok.Kind != dlog.TokIdent {
			break
		}
		kw := strings.ToLower(tok.Text)
		switch kw {
		case "database", "db", "input", "state", "output", "log":
			l.Next()
			if l.Accept(dlog.TokColon) {
				if err := p.parseDeclList(kw); err != nil {
					return nil, err
				}
				continue
			}
			if (kw == "state" || kw == "output") && l.AcceptKeyword("rules") {
				rules, err := p.parseRules()
				if err != nil {
					return nil, err
				}
				if kw == "state" {
					p.stateRules = append(p.stateRules, rules...)
				} else {
					p.outputRules = append(p.outputRules, rules...)
				}
				continue
			}
			return nil, l.Errorf("expected ':' or 'rules' after %q", kw)
		default:
			break sections
		}
	}
	if l.Tok().Kind != dlog.TokEOF {
		return nil, l.Errorf("unexpected %s %q", l.Tok().Kind, l.Tok().Text)
	}
	if err := l.Err(); err != nil {
		return nil, err
	}
	return p.build()
}

func (p *progParser) parseDeclList(section string) error {
	l := p.lex
	d := p.decls[section]
	if d == nil {
		d = &sectionDecl{arities: map[string]int{}}
		p.decls[section] = d
	}
	for {
		t, err := l.Expect(dlog.TokIdent)
		if err != nil {
			return err
		}
		name := t.Text
		arity := -1
		if l.Accept(dlog.TokSlash) {
			at, err := l.Expect(dlog.TokIdent)
			if err != nil {
				return err
			}
			if _, err := fmt.Sscanf(at.Text, "%d", &arity); err != nil || arity < 0 {
				return l.Errorf("bad arity %q for %s", at.Text, name)
			}
		}
		if prev, ok := d.arities[name]; ok {
			if prev != arity {
				return l.Errorf("relation %s declared twice with different arities", name)
			}
		} else {
			d.names = append(d.names, name)
			d.arities[name] = arity
		}
		if l.Accept(dlog.TokComma) {
			continue
		}
		if l.Accept(dlog.TokSemi) || l.Tok().Kind == dlog.TokEOF {
			return nil
		}
		return l.Errorf("expected ',' or ';' in %s declaration, found %q", section, l.Tok().Text)
	}
}

func (p *progParser) parseRules() (dlog.Program, error) {
	l := p.lex
	var rules dlog.Program
	for {
		t := l.Tok()
		if t.Kind == dlog.TokEOF {
			return rules, nil
		}
		// Stop at the start of another rule section.
		if t.Kind == dlog.TokIdent && (strings.EqualFold(t.Text, "state") || strings.EqualFold(t.Text, "output")) {
			// Lookahead: a rule head could legitimately be a relation named
			// "state"... the schema reserves these as section keywords, so
			// treat them as section starts.
			return rules, nil
		}
		r, err := dlog.ParseRuleFrom(l)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
}

func (p *progParser) build() (*Machine, error) {
	// Resolve arities: first from annotations, then from rule usage.
	use := map[string]int{}
	record := func(pred string, arity int, where dlog.Rule) error {
		if prev, ok := use[pred]; ok && prev != arity {
			return fmt.Errorf("relation %s used with arities %d and %d (%s)", pred, prev, arity, where.String())
		}
		use[pred] = arity
		return nil
	}
	for _, prog := range []dlog.Program{p.stateRules, p.outputRules} {
		for _, r := range prog {
			if err := record(r.Head.Pred, len(r.Head.Args), r); err != nil {
				return nil, err
			}
			for _, lit := range r.Body {
				if lit.Kind == dlog.LitPos || lit.Kind == dlog.LitNeg {
					if err := record(lit.Atom.Pred, len(lit.Atom.Args), r); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	mkSchema := func(section string) (relation.Schema, error) {
		d := p.decls[section]
		if d == nil {
			return nil, nil
		}
		var out relation.Schema
		for _, name := range d.names {
			arity := d.arities[name]
			if arity == -1 {
				if a, ok := use[name]; ok {
					arity = a
				} else {
					return nil, fmt.Errorf("cannot infer arity of %s relation %s: never used in a rule (annotate as %s(k))", section, name, name)
				}
			}
			if a, ok := use[name]; ok && a != arity {
				return nil, fmt.Errorf("%s relation %s declared with arity %d but used with arity %d", section, name, arity, a)
			}
			out = append(out, relation.Decl{Name: name, Arity: arity})
		}
		return out, nil
	}
	db, err := mkSchema("database")
	if err != nil {
		return nil, err
	}
	if extra, err2 := mkSchema("db"); err2 != nil {
		return nil, err2
	} else if extra != nil {
		db = append(db, extra...)
	}
	in, err := mkSchema("input")
	if err != nil {
		return nil, err
	}
	st, err := mkSchema("state")
	if err != nil {
		return nil, err
	}
	out, err := mkSchema("output")
	if err != nil {
		return nil, err
	}
	var logNames []string
	if d := p.decls["log"]; d != nil {
		logNames = d.names
	}
	schema := &Schema{In: in, State: st, Out: out, DB: db, Log: logNames}

	m, err := p.classify(schema)
	if err != nil {
		return nil, err
	}
	m.name = p.name
	return m, nil
}

// classify picks the most restricted machine kind the rules admit.
func (p *progParser) classify(schema *Schema) (*Machine, error) {
	var extra dlog.Program
	spocusOnly := true
	for _, r := range p.stateRules {
		if isImplicitPastRule(r, schema.In) {
			continue
		}
		extra = append(extra, r)
		if !r.Cumulative || hasNegation(r) {
			spocusOnly = false
		}
	}
	if len(extra) == 0 {
		s := schema
		if subsetOfImplicitPasts(schema) {
			// The paper's programs sometimes omit past-R declarations for
			// inputs whose history is never consulted (friendly declares no
			// past-pending-bills); the Spocus definition mandates the full
			// set, so complete it.
			s = schema.Clone()
			s.State = nil
		}
		if m, err := NewSpocus(s, p.outputRules); err == nil {
			return m, nil
		} else if schemaIsSpocus(s) {
			// The schema matches Spocus, so the error is a genuine rule
			// violation worth surfacing rather than silently generalizing.
			return nil, err
		}
	}
	if spocusOnly {
		if m, err := NewExtended(schema, extra, p.outputRules); err == nil {
			return m, nil
		}
	}
	return NewGeneral(schema, p.stateRules, p.outputRules)
}

// subsetOfImplicitPasts reports whether every declared state relation is
// past-R for some input relation R with matching arity.
func subsetOfImplicitPasts(s *Schema) bool {
	for _, d := range s.State {
		base, ok := s.PastBase(d.Name)
		if !ok {
			return false
		}
		if a, _ := s.In.Arity(base); a != d.Arity {
			return false
		}
	}
	return true
}

// schemaIsSpocus reports whether the declared state schema is exactly
// {past-R | R ∈ in}.
func schemaIsSpocus(s *Schema) bool {
	if s.State == nil {
		return true
	}
	if len(s.State) != len(s.In) {
		return false
	}
	for _, d := range s.In {
		if a, ok := s.State.Arity(Past(d.Name)); !ok || a != d.Arity {
			return false
		}
	}
	return true
}

// isImplicitPastRule recognizes "past-R(X̄) +:- R(X̄)" with distinct
// variables, the implicit Spocus cumulation rule.
func isImplicitPastRule(r dlog.Rule, in relation.Schema) bool {
	if !r.Cumulative || len(r.Body) != 1 || r.Body[0].Kind != dlog.LitPos {
		return false
	}
	body := r.Body[0].Atom
	if r.Head.Pred != Past(body.Pred) || !in.Has(body.Pred) {
		return false
	}
	if len(r.Head.Args) != len(body.Args) {
		return false
	}
	seen := map[string]bool{}
	for i := range body.Args {
		h, b := r.Head.Args[i], body.Args[i]
		if !h.Var || !b.Var || h.Name != b.Name || seen[h.Name] {
			return false
		}
		seen[h.Name] = true
	}
	return true
}

func hasNegation(r dlog.Rule) bool {
	for _, l := range r.Body {
		if l.Kind == dlog.LitNeg {
			return true
		}
	}
	return false
}
