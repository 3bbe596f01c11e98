// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver: two-watched-literal propagation, first-UIP conflict analysis,
// VSIDS-style branching activities, phase saving, and Luby restarts.
//
// The solver is the execution substrate for the paper's decision procedures:
// every decidability result reduces to finite satisfiability of a
// Bernays–Schönfinkel sentence, which package fol grounds into CNF and
// solves here. Variables are positive integers; literals are non-zero
// integers with negation by sign, as in DIMACS.
package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means solving was aborted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// ErrBadLiteral is returned when a clause mentions literal 0 or an
// undeclared variable.
var ErrBadLiteral = errors.New("sat: literal must be a non-zero declared variable")

type clause struct {
	lits []int
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars   int
	clauses []*clause // problem clauses; learnt ones live on the watch lists
	// attached is how many of clauses are on their watch lists; AddClause
	// only records a clause, and the next Solve attaches the new ones in
	// order — the lists come out exactly as if each had been attached at
	// once, since nothing else touches them between two Solve calls.
	attached int

	// watches[idx(l)] lists clauses watching literal l (their lits[0] or
	// lits[1] equals l).
	watches [][]*clause

	// litSlab and clauseSlab are the chunks clause literals and clause
	// records are carved from, so intake allocates per chunk, not per clause.
	litSlab    []int
	clauseSlab []clause

	assign   []int8 // 1 true, -1 false, 0 unassigned; indexed by var
	level    []int  // decision level per var
	reason   []*clause
	phase    []int8 // saved phase per var
	trail    []int
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64

	// heap orders variables by (activity descending, index ascending) — the
	// branching order; heapPos[v] is v's slot or -1. Assigned variables
	// leave it lazily, when they surface at the top, and re-enter in
	// cancelUntil, so every unassigned variable is always in it.
	heap    []int
	heapPos []int

	// mark and markGen dedupe without maps: an entry equal to markGen is
	// "seen in the current AddClause (indexed by literal) or analyze
	// (indexed by variable)"; bumping markGen clears every mark at once.
	mark    []uint32
	markGen uint32

	propagations uint64
	conflicts    uint64
	decisions    uint64

	// interrupt, when non-nil, is polled periodically during search; a true
	// return aborts the current Solve call with Unknown.
	interrupt func() bool

	model []int8
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1}
	s.watches = make([][]*clause, 2)
	s.assign = make([]int8, 1)
	s.level = make([]int, 1)
	s.reason = make([]*clause, 1)
	s.phase = make([]int8, 1)
	s.activity = make([]float64, 1)
	s.heapPos = []int{-1}
	s.mark = make([]uint32, 2)
	return s
}

// NewVar allocates a fresh variable and returns its index (≥ 1).
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, -1)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.mark = append(s.mark, 0, 0)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(s.nVars)
	return s.nVars
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats returns (propagations, conflicts, decisions) counters.
func (s *Solver) Stats() (uint64, uint64, uint64) {
	return s.propagations, s.conflicts, s.decisions
}

// SetInterrupt installs a callback polled periodically inside the search
// loop; when it returns true the in-flight Solve call stops and returns
// Unknown. The callback must be cheap (it is invoked every few hundred
// search steps) and safe to call from the solving goroutine. Passing nil
// removes the hook.
func (s *Solver) SetInterrupt(f func() bool) { s.interrupt = f }

// interruptEvery is the number of search-loop iterations between interrupt
// polls: frequent enough for sub-millisecond cancellation latency, rare
// enough to stay invisible in profiles.
const interruptEvery = 512

func idx(l int) int {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

func (s *Solver) valueLit(l int) int8 {
	v := l
	if v < 0 {
		v = -v
	}
	a := s.assign[v]
	if l < 0 {
		return -a
	}
	return a
}

// AddClause adds a problem clause. Duplicate literals are removed and
// tautological clauses are dropped. Adding an empty clause (or a clause
// whose literals are all already false at level 0) makes the instance
// trivially unsatisfiable. It must be called before Solve. The literals are
// copied; the caller may reuse lits.
func (s *Solver) AddClause(lits ...int) error {
	gen := s.nextMark()
	buf := s.carveLits(len(lits))
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		if l == 0 || v > s.nVars {
			return fmt.Errorf("%w: %d (have %d vars)", ErrBadLiteral, l, s.nVars)
		}
		if s.mark[idx(-l)] == gen {
			return nil // tautology
		}
		if s.mark[idx(l)] == gen {
			continue
		}
		s.mark[idx(l)] = gen
		buf = append(buf, l)
	}
	s.clauses = append(s.clauses, s.newClause(s.keepLits(buf)))
	return nil
}

// nextMark starts a fresh dedupe generation, clearing the marks when the
// counter wraps.
func (s *Solver) nextMark() uint32 {
	s.markGen++
	if s.markGen == 0 {
		clear(s.mark)
		s.markGen = 1
	}
	return s.markGen
}

// slabChunk bounds the size of a fresh literal or clause chunk; chunks
// start small and double, so a tiny problem does not pay for a large one.
const slabChunk = 1 << 14

// carveLits returns an empty slice with room for n literals at the free
// end of the literal slab; keepLits then claims what was appended to it.
func (s *Solver) carveLits(n int) []int {
	if cap(s.litSlab)-len(s.litSlab) < n {
		size := min(max(2*cap(s.litSlab), 256), slabChunk)
		s.litSlab = make([]int, 0, max(size, n))
	}
	return s.litSlab[len(s.litSlab):len(s.litSlab)]
}

// keepLits claims buf, carved by carveLits and filled since, as clause
// literals.
func (s *Solver) keepLits(buf []int) []int {
	n := len(s.litSlab)
	s.litSlab = s.litSlab[:n+len(buf)]
	return s.litSlab[n : n+len(buf) : n+len(buf)]
}

// newClause carves a clause record from the clause slab.
func (s *Solver) newClause(lits []int) *clause {
	if len(s.clauseSlab) == cap(s.clauseSlab) {
		s.clauseSlab = make([]clause, 0, min(max(2*cap(s.clauseSlab), 64), slabChunk))
	}
	s.clauseSlab = append(s.clauseSlab, clause{lits: lits})
	return &s.clauseSlab[len(s.clauseSlab)-1]
}

// attachNew puts the clauses added since the last Solve on their watch
// lists. A list that is still empty is carved, at the size its new
// watchers need, from one backing array for all of them.
func (s *Solver) attachNew() {
	fresh := s.clauses[s.attached:]
	s.attached = len(s.clauses)
	need := make([]int, len(s.watches))
	for _, c := range fresh {
		if len(c.lits) >= 2 {
			need[idx(c.lits[0])]++
			need[idx(c.lits[1])]++
		}
	}
	total := 0
	for i, n := range need {
		if cap(s.watches[i]) == 0 {
			total += n
		} else {
			need[i] = 0
		}
	}
	backing := make([]*clause, total)
	for i, n := range need {
		if n > 0 {
			s.watches[i], backing = backing[:0:n], backing[n:]
		}
	}
	for _, c := range fresh {
		if len(c.lits) >= 2 {
			s.watch(c)
		}
	}
}

func (s *Solver) watch(c *clause) {
	s.watches[idx(c.lits[0])] = append(s.watches[idx(c.lits[0])], c)
	s.watches[idx(c.lits[1])] = append(s.watches[idx(c.lits[1])], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l int, from *clause) bool {
	switch s.valueLit(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l
	sign := int8(1)
	if v < 0 {
		v = -v
		sign = -1
	}
	s.assign[v] = sign
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		notP := -p
		ws := s.watches[idx(notP)]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is lits[1].
			if c.lits[0] == notP {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If lits[0] is true, clause is satisfied.
			if s.valueLit(c.lits[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != -1 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[idx(c.lits[1])] = append(s.watches[idx(c.lits[1])], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watchers and return.
				kept = append(kept, ws[i+1:]...)
				s.watches[idx(notP)] = kept
				return c
			}
		}
		s.watches[idx(notP)] = kept
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling keeps the order up to rounding, which may create ties the
		// index then breaks the other way: re-establish the heap outright.
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
		return
	}
	if i := s.heapPos[v]; i >= 0 {
		s.siftUp(i)
	}
}

// before is the branching order: higher activity first, lower index on a
// tie — exactly the variable a linear scan keeping the first maximum picks.
func (s *Solver) before(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int) {
	s.heapPos[v] = len(s.heap)
	s.heap = append(s.heap, v)
	s.siftUp(len(s.heap) - 1)
}

func (s *Solver) siftUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) siftDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.before(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.before(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

// heapPop removes and returns the first variable in branching order.
func (s *Solver) heapPop() int {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapPos[s.heap[0]] = 0
		s.siftDown(0)
	}
	return v
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level. The clause is
// carved from the literal slab.
func (s *Solver) analyze(confl *clause) ([]int, int) {
	learnt := append(s.carveLits(len(s.trail)+1), 0) // slot for asserting literal
	gen := s.nextMark()
	seen := s.mark // indexed by variable here
	counter := 0
	p := 0
	trailIdx := len(s.trail) - 1
	c := confl
	for {
		start := 0
		if p != 0 {
			start = 1
		}
		for k := start; k < len(c.lits); k++ {
			q := c.lits[k]
			v := q
			if v < 0 {
				v = -v
			}
			if seen[v] == gen || s.level[v] == 0 {
				continue
			}
			seen[v] = gen
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal to expand on the trail.
		for {
			p = s.trail[trailIdx]
			trailIdx--
			v := p
			if v < 0 {
				v = -v
			}
			if seen[v] == gen {
				c = s.reason[v]
				seen[v] = 0
				counter--
				break
			}
		}
		if counter == 0 {
			break
		}
		// p's reason is expanded next; asserting literal is ¬p ultimately.
		if c == nil {
			// Decision variable reached with counter>0 cannot happen in
			// 1UIP analysis; guard defensively.
			break
		}
	}
	learnt[0] = -p
	// Compute backjump level: max level among learnt[1:].
	bl := 0
	for _, q := range learnt[1:] {
		v := q
		if v < 0 {
			v = -v
		}
		if s.level[v] > bl {
			bl = s.level[v]
		}
	}
	// Move a literal of backjump level to position 1 for watching.
	for i := 1; i < len(learnt); i++ {
		v := learnt[i]
		if v < 0 {
			v = -v
		}
		if s.level[v] == bl {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	return s.keepLits(learnt), bl
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	limit := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l
		ph := int8(1)
		if v < 0 {
			v = -v
			ph = -1
		}
		s.phase[v] = ph
		s.assign[v] = 0
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = limit
}

// pickBranchVar selects the unassigned variable with the highest activity
// (the lowest index among equals), or 0 when every variable is assigned.
// Assigned variables met at the top of the heap are dropped on the way.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		if v := s.heapPop(); s.assign[v] == 0 {
			return v
		}
	}
	return 0
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int) int {
	// Find the subsequence containing i.
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment. The optional assumptions are
// literals fixed at decision level 1. maxConflicts < 0 means no budget.
func (s *Solver) Solve(assumptions ...int) Status {
	return s.SolveBudget(-1, assumptions...)
}

// SolveBudget is Solve with a conflict budget; it returns Unknown when the
// budget is exhausted. The budget counts this call's conflicts only.
func (s *Solver) SolveBudget(maxConflicts int64, assumptions ...int) Status {
	s.cancelUntil(0)
	s.attachNew()
	// Attach unit clauses at level 0.
	for _, c := range s.clauses {
		switch len(c.lits) {
		case 0:
			return Unsat
		case 1:
			if !s.enqueue(c.lits[0], nil) {
				return Unsat
			}
		}
	}
	if s.propagate() != nil {
		return Unsat
	}
	restart := 1
	budget := int64(100) * int64(luby(restart))
	var spent, conflicts int64
	var steps uint
	for {
		steps++
		if steps%interruptEvery == 0 && s.interrupt != nil && s.interrupt() {
			return Unknown
		}
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflicts++
			spent++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, bl := s.analyze(confl)
			s.cancelUntil(bl)
			c := s.newClause(learnt)
			if len(learnt) >= 2 {
				s.watch(c)
			}
			if !s.enqueue(learnt[0], c) {
				return Unsat
			}
			s.varInc /= 0.95
			if maxConflicts >= 0 && conflicts > maxConflicts {
				return Unknown
			}
			if spent > budget {
				// Restart.
				restart++
				budget = int64(100) * int64(luby(restart))
				spent = 0
				s.cancelUntil(0)
			}
			continue
		}
		// No conflict: decide.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case -1:
				return Unsat
			case 1:
				// Already satisfied; open an empty decision level so the
				// index keeps advancing.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, nil)
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			// All variables assigned: model found.
			s.model = append([]int8(nil), s.assign...)
			return Sat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := v
		if s.phase[v] == -1 {
			l = -v
		}
		s.enqueue(l, nil)
	}
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool {
	if s.model == nil || v <= 0 || v >= len(s.model) {
		return false
	}
	return s.model[v] == 1
}

// Model returns the satisfying assignment as a sorted list of true variable
// indices; it is only meaningful after Solve returned Sat.
func (s *Solver) Model() []int {
	var out []int
	for v := 1; v < len(s.model); v++ {
		if s.model[v] == 1 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
