package fol

import "fmt"

// solveNaive decides the problem as Solve did before fixed relations drove
// instantiation: every universal variable, and every existential under a
// universal one, ranges over the whole domain, and every other existential
// is a selector over the whole domain. It shares Solve's domain, atom
// encoding and witness read-out, and is the oracle the guarded grounder is
// checked against.
func solveNaive(p *Problem) (*Result, error) {
	return solve(p, func(g *grounder, f Formula) (int, error) { return naive{g}.lit(f, false) })
}

// naive is the domain-enumerating grounder; only its quantifier and
// connective cases differ from grounder's.
type naive struct{ *grounder }

func (g naive) lit(f Formula, underForall bool) (int, error) {
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

func (g naive) junction(fs []Formula, underForall, and bool) (int, error) {
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
// disjunction, over all domain assignments of x̄.
func (g naive) expand(vars []string, body Formula, forall bool) (int, error) {
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
func (g naive) instances(vars []string, body Formula, n, i int) error {
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
