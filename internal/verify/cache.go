package verify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dlog"
	"repro/internal/fol"
)

// Cache memoizes solved grounding problems across decision procedures. The
// same subproblem recurs naturally: CheckErrorFree and ErrorFreeContained
// re-ask the same (transducer, run length) no-error sentences for every
// clause, Equivalent asks both Contains directions over shared groundings,
// and a long-running service re-verifies the same transducers over and over.
//
// The key is a canonical serialization of the full grounding input (the
// fingerprints of the machines whose translation produced the problem, the
// formula with variable/constant tagging, fixed extensions, free
// declarations, domain constants, solver mode), so a hit is guaranteed to
// be the same finite-satisfiability question asked of the same model. Only
// decisive results (Sat/Unsat) are stored; budget-exhausted and cancelled
// runs are not.
//
// Cached *fol.Result values are shared between callers and must be treated
// as read-only; every consumer in this package either only reads the model
// or clones the relations it keeps.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*fol.Result
	hits    uint64
	misses  uint64
}

// NewCache creates an empty cache, safe for concurrent use and for sharing
// between procedures and goroutines via Options.Cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*fol.Result)}
}

func (c *Cache) lookup(key string) (*fol.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return res, ok
}

func (c *Cache) store(key string, res *fol.Result) {
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()
}

// Len returns the number of memoized subproblems.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns the hit and miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// Purge drops every entry (counters are kept). Useful when a long-lived
// service swaps out its transducer set.
func (c *Cache) Purge() {
	c.mu.Lock()
	c.entries = make(map[string]*fol.Result)
	c.mu.Unlock()
}

// problemKey canonically serializes a grounding problem. Formula terms are
// tagged as variable or constant so names that appear in both roles cannot
// collide; fixed extensions use the relations' sorted tuple order; map
// iteration order never leaks into the key. Every name and constant is
// written with its length in front (see writeStr), so no byte a constant
// may hold can make two problems serialize alike.
func problemKey(p *fol.Problem) string {
	var b strings.Builder
	// The tag scopes the key to the machine(s) whose translation produced
	// the problem (see fol.Problem.Tag): formulas erase the machine into
	// structure, and two models sharing rule text must not share entries
	// when one process-wide cache serves many models.
	writeStr(&b, p.Tag)
	b.WriteByte('\x02')
	writeFormula(&b, p.Formula)

	b.WriteString("\x02fixed")
	names := make([]string, 0, len(p.Fixed))
	for name := range p.Fixed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := p.Fixed[name]
		b.WriteByte('\x01')
		writeStr(&b, name)
		if r == nil {
			b.WriteString("nil")
			continue
		}
		fmt.Fprintf(&b, "/%d", r.Arity())
		for _, t := range r.Tuples() {
			b.WriteByte('\x03')
			for _, c := range t {
				writeStr(&b, string(c))
			}
		}
	}

	b.WriteString("\x02free")
	names = names[:0]
	for name := range p.Free {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteByte('\x01')
		writeStr(&b, name)
		fmt.Fprintf(&b, "/%d", p.Free[name])
	}

	b.WriteString("\x02consts")
	consts := make([]string, 0, len(p.ExtraConsts))
	for _, c := range p.ExtraConsts {
		consts = append(consts, string(c))
	}
	sort.Strings(consts)
	for i, c := range consts {
		if i > 0 && c == consts[i-1] {
			continue
		}
		b.WriteByte('\x01')
		writeStr(&b, c)
	}

	fmt.Fprintf(&b, "\x02w%d\x02fd%v", p.Witnesses, p.FiniteDomain)
	return b.String()
}

// writeStr writes s preceded by its length, so the reader of a key always
// knows where s ends, whatever bytes it holds.
func writeStr(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func writeFormula(b *strings.Builder, f fol.Formula) {
	switch t := f.(type) {
	case fol.Atom:
		b.WriteString("A(")
		writeStr(b, t.Pred)
		for _, a := range t.Args {
			writeTerm(b, a)
		}
		b.WriteByte(')')
	case fol.Equal:
		b.WriteString("E(")
		writeTerm(b, t.L)
		writeTerm(b, t.R)
		b.WriteByte(')')
	case fol.Not:
		b.WriteString("N(")
		writeFormula(b, t.F)
		b.WriteByte(')')
	case fol.And:
		b.WriteString("&(")
		for _, h := range t.Fs {
			writeFormula(b, h)
		}
		b.WriteByte(')')
	case fol.Or:
		b.WriteString("|(")
		for _, h := range t.Fs {
			writeFormula(b, h)
		}
		b.WriteByte(')')
	case fol.Exists:
		b.WriteString("X[")
		writeVars(b, t.Vars)
		b.WriteByte(']')
		writeFormula(b, t.F)
	case fol.Forall:
		b.WriteString("U[")
		writeVars(b, t.Vars)
		b.WriteByte(']')
		writeFormula(b, t.F)
	default:
		fmt.Fprintf(b, "?%T", f)
	}
}

func writeTerm(b *strings.Builder, t dlog.Term) {
	if t.Var {
		b.WriteString("v")
	} else {
		b.WriteString("c")
	}
	writeStr(b, t.Name)
}

func writeVars(b *strings.Builder, vars []string) {
	for _, v := range vars {
		writeStr(b, v)
	}
}
