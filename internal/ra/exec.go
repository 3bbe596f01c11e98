package ra

import (
	"sync"

	"repro/internal/dlog"
	"repro/internal/relation"
)

// iRel is a relation in interned form: rows of integer symbols with a
// membership set and a first-column hash index. EDB relations are interned
// once per Eval on first reference; derived relations are built directly
// in interned form, so the whole fixpoint runs on integer equality.
//
// The membership set keys a row of arity ≤ 2 by one packed 64-bit word
// (words) and a wider row by its symbols' bytes (set); only the map that
// matches the arity is ever built. Both structures are lazy: the set
// materializes on the first probe of a non-empty relation (or the first
// derived-store insert, which needs it for dedup) and the index on the
// first indexed scan. A scan-only relation carries just its rows; once
// built — a non-nil map — each structure is kept current by every append.
type iRel struct {
	arity   int
	rows    [][]uint32
	words   map[uint64]struct{} // arity ≤ 2
	set     map[string]struct{} // arity ≥ 3
	byFirst map[uint32][]int32  // first symbol -> row indices
	// arena is row storage left by a recycled relation: newRow carves rows
	// from it while it has room.
	arena []uint32
}

func newIRel(arity int) *iRel {
	return &iRel{arity: arity}
}

// absent is what the executor's per-evaluation memo holds for a predicate
// no EDB source holds. Its arity matches no atom, so every scan of it is
// empty and every probe misses, without a separate nil check; nothing ever
// writes to it.
var absent = &iRel{arity: -1}

// packed reports whether rows of r are keyed by one word.
func (r *iRel) packed() bool { return r.arity <= 2 }

// word packs a row of at most two symbols into its membership key.
func word(row []uint32) uint64 {
	switch len(row) {
	case 0:
		return 0
	case 1:
		return uint64(row[0])
	}
	return uint64(row[0])<<32 | uint64(row[1])
}

// bytesKey writes a row's symbols into buf, 4 bytes each: the key of a row
// of three or more symbols. buf is reused across calls to keep the hot loop
// allocation-free (a map lookup by string(buf) does not copy).
func bytesKey(row []uint32, buf []byte) []byte {
	buf = buf[:0]
	for _, s := range row {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return buf
}

// buildSet materializes the membership set from the current rows.
func (r *iRel) buildSet() {
	if r.packed() {
		r.words = make(map[uint64]struct{}, len(r.rows))
		for _, row := range r.rows {
			r.words[word(row)] = struct{}{}
		}
		return
	}
	r.set = make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = bytesKey(row, buf)
		r.set[string(buf)] = struct{}{}
	}
}

// hasSet reports whether the membership set is built.
func (r *iRel) hasSet() bool { return r.words != nil || r.set != nil }

// build materializes the access structures named by the need flags. The
// interned-relation cache calls this before sharing an iRel, so shared
// copies are immutable thereafter.
func (r *iRel) build(need uint8) {
	if need&needSet != 0 && !r.hasSet() {
		r.buildSet()
	}
	if need&needIdx != 0 {
		r.idx()
	}
}

// idx returns the first-column index, building it on first use. Subsequent
// adds keep it current, so the append-only length-snapshot contract of the
// scan loop still holds.
func (r *iRel) idx() map[uint32][]int32 {
	if r.byFirst == nil && r.arity > 0 {
		r.byFirst = make(map[uint32][]int32, len(r.rows))
		for i, row := range r.rows {
			r.byFirst[row[0]] = append(r.byFirst[row[0]], int32(i))
		}
	}
	return r.byFirst
}

// has reports whether row is in the relation.
func (r *iRel) has(row []uint32, buf []byte) ([]byte, bool) {
	if len(r.rows) == 0 {
		return buf, false
	}
	if !r.hasSet() {
		r.buildSet()
	}
	if r.packed() {
		_, ok := r.words[word(row)]
		return buf, ok
	}
	buf = bytesKey(row, buf)
	_, ok := r.set[string(buf)]
	return buf, ok
}

// add inserts a row, returning true if new. The row slice is retained.
func (r *iRel) add(row []uint32, buf []byte) ([]byte, bool) {
	buf, added := r.claim(row, buf)
	if added {
		r.appendRow(row)
	}
	return buf, added
}

// claim enters row's key in the membership set, building the set first if
// need be, and reports false if the set held it already. The caller
// appends a claimed row with appendRow.
func (r *iRel) claim(row []uint32, buf []byte) ([]byte, bool) {
	if !r.hasSet() {
		r.buildSet()
	}
	if r.packed() {
		k := word(row)
		if _, ok := r.words[k]; ok {
			return buf, false
		}
		r.words[k] = struct{}{}
		return buf, true
	}
	buf = bytesKey(row, buf)
	if _, ok := r.set[string(buf)]; ok {
		return buf, false
	}
	r.set[string(buf)] = struct{}{}
	return buf, true
}

// push appends a row the relation is known not to hold (its source is a
// set), keeping a built membership set current. The row slice is retained.
func (r *iRel) push(row []uint32) {
	switch {
	case r.words != nil:
		r.words[word(row)] = struct{}{}
	case r.set != nil:
		r.set[string(bytesKey(row, nil))] = struct{}{}
	}
	r.appendRow(row)
}

// appendRow appends a row whose key the membership set (if built) holds,
// keeping the index current. The row slice is retained.
func (r *iRel) appendRow(row []uint32) {
	if r.byFirst != nil {
		r.byFirst[row[0]] = append(r.byFirst[row[0]], int32(len(r.rows)))
	}
	r.rows = append(r.rows, row)
}

// newRow returns empty storage for one row (length 0, capacity arity):
// carved from the arena while it has room, allocated otherwise.
func (r *iRel) newRow() []uint32 {
	n := len(r.arena)
	if n+r.arity <= cap(r.arena) {
		r.arena = r.arena[:n+r.arity]
		return r.arena[n : n : n+r.arity]
	}
	return make([]uint32, 0, r.arity)
}

// recycleRows bounds what a recycled relation keeps: a relation that held
// more rows than this is left to the collector instead.
const recycleRows = 256

// recycle empties the relation for reuse, keeping its maps, its row slice
// and, in the arena, room for as many rows as it held — storage sized by
// the last evaluation, not by the largest one ever. It reports false, and
// keeps nothing, when the relation was too large to be worth keeping.
// Nothing may still read the rows the relation held: rows carved after
// this call reuse their storage.
func (r *iRel) recycle() bool {
	n := len(r.rows)
	if n > recycleRows {
		return false
	}
	if used := n * r.arity; cap(r.arena) < used || cap(r.arena) > 2*used {
		r.arena = make([]uint32, 0, used)
	} else {
		r.arena = r.arena[:0]
	}
	clear(r.rows)
	r.rows = r.rows[:0]
	clear(r.words)
	clear(r.set)
	clear(r.byFirst)
	return true
}

// internRel converts an EDB relation to interned form. Misses are interned
// through the shared table; within one relation, repeated constants hit the
// table's read path. The source relation is a set already, so rows append
// without a dedup pass; set and index materialize only if a plan probes or
// index-scans the predicate.
func internRel(rel *relation.Rel, in *Interner) *iRel {
	return internInto(newIRel(rel.Arity()), rel, in)
}

// internInto appends rel's rows, interned, to the empty relation ir.
func internInto(ir *iRel, rel *relation.Rel, in *Interner) *iRel {
	if n := rel.Len(); n > cap(ir.rows) {
		ir.rows = make([][]uint32, 0, n)
	}
	rel.Range(func(t relation.Tuple) bool {
		row := ir.newRow()
		for _, c := range t {
			row = append(row, in.ID(c))
		}
		ir.push(row)
		return true
	})
	return ir
}

// evalCtx is the per-Eval execution state: the register frame, the derived
// store, and the EDB — a dlog.DB interned on reference (through the cache,
// if any), or resident stores read in place. Plans are shared across
// sessions; the ctx is what makes a concurrent Eval reentrant. Every
// relation the ctx holds is indexed by predicate slot.
type evalCtx struct {
	plan    *Plan
	edb     dlog.DB
	cache   *Cache
	stores  []*Store // when set, the EDB: the first store holding a slot wins
	regs    []uint32
	derived []*iRel // EvalCached's own frame, or EvalStores' destination
	own     []*iRel // the pooled frame EvalCached derives into
	dst     *Store  // EvalStores' destination, whose spares emit takes first
	edbRels []*iRel // memo; absent = relation absent in the EDB
	keyBuf  []byte
	probe   []uint32 // scratch row for (anti-)semijoin probes and emits
	changed bool
	rows    int64 // iterator rows pulled, flushed to stats at Eval end
}

// ctxPool recycles evalCtx frames (and their slices) across Evals; the
// step path runs two Evals per transducer step, so this keeps the fixed
// per-Eval allocation cost near zero.
var ctxPool = sync.Pool{New: func() any { return &evalCtx{} }}

// rel resolves a predicate the way the tree evaluator's lookupChain does:
// the derived store shadows the EDB as soon as the predicate has at least
// one derived tuple; otherwise the EDB relation (interned and cached).
// Under a no-shadow plan (state programs) reads always go to the EDB.
func (c *evalCtx) rel(slot int32) *iRel {
	if !c.plan.noShadow {
		if ir := c.derived[slot]; ir != nil {
			return ir
		}
	}
	if ir := c.edbRels[slot]; ir != nil {
		return ir
	}
	ir := absent
	if c.stores != nil {
		for _, s := range c.stores {
			if r := s.lookup(slot); r != nil {
				ir = r
				break
			}
		}
	} else if c.edb != nil {
		if rel := c.edb.Rel(c.plan.names[slot]); rel != nil {
			if c.cache != nil {
				ir = c.cache.intern(rel, c.plan.interner, c.plan.needs[slot])
			} else {
				ir = internRel(rel, c.plan.interner)
			}
		}
	}
	c.edbRels[slot] = ir
	return ir
}

// Eval executes the plan over the EDB and returns the derived instance,
// exactly as dlog.EvalStratified would: strata in order, each iterated to
// a fixpoint (single pass when the stratum has no intra-stratum positive
// reference).
func (p *Plan) Eval(edb dlog.DB) (relation.Instance, error) {
	return p.EvalCached(edb, nil)
}

// EvalCached is Eval with an interned-relation cache: EDB relations whose
// contents the cache has already interned are reused instead of being
// re-interned. Pass the same cache across a session's steps (the machine
// layer does) so the fixed database interns once, not once per step.
func (p *Plan) EvalCached(edb dlog.DB, cache *Cache) (relation.Instance, error) {
	ctx := p.begin()
	ctx.edb, ctx.cache = edb, cache
	ctx.own = sized(ctx.own, len(p.names))
	ctx.derived = ctx.own
	ctx.run()
	out := instanceOf(ctx.derived, p.names, p.interner)
	clear(ctx.own)
	ctx.end()
	return out, nil
}

// EvalStores is Eval over resident stores: a body predicate reads the first
// store that holds its slot (dlog.MultiDB's rule) in place — nothing is
// interned, copied or scanned to get at it. The derived relations replace
// dst's contents and stay interned, so the caller can fold them into a
// store (Store.Merge) or materialize them (Store.Instance); dst must not be
// one of the stores. What dst held before is recycled: the new relations
// are built in its old relations' maps, row slices and row storage, so
// nothing may still read them — Merge gives up the relations it folds, and
// Instance copies.
func (p *Plan) EvalStores(dst *Store, stores []*Store) {
	ctx := p.begin()
	ctx.stores = stores
	dst.recycle(len(p.names))
	ctx.derived, ctx.dst = dst.rels, dst
	ctx.run()
	ctx.end()
}

// begin takes an execution context for one evaluation of p.
func (p *Plan) begin() *evalCtx {
	ctx := ctxPool.Get().(*evalCtx)
	ctx.plan = p
	if cap(ctx.regs) < p.maxRegs {
		ctx.regs = make([]uint32, p.maxRegs)
	}
	ctx.regs = ctx.regs[:cap(ctx.regs)]
	ctx.edbRels = sized(ctx.edbRels, len(p.names))
	return ctx
}

// sized returns rels with length n, reallocated only if it lacks the
// capacity; pooled frames are cleared before they are put back, so the
// result holds only nils.
func sized(rels []*iRel, n int) []*iRel {
	if cap(rels) < n {
		return make([]*iRel, n)
	}
	return rels[:n]
}

// run executes the strata in order, each to its fixpoint, into ctx.derived.
func (c *evalCtx) run() {
	for si := range c.plan.strata {
		st := &c.plan.strata[si]
		for {
			c.changed = false
			for _, cr := range st.rules {
				c.runRule(cr)
			}
			if !c.changed || !st.recursive {
				break
			}
		}
	}
}

// end flushes the evaluation's counters and returns the context to the
// pool. The derived store must be empty again by now.
func (c *evalCtx) end() {
	rowsPulled.Add(c.rows)
	evals.Add(1)
	c.plan, c.edb, c.cache, c.stores = nil, nil, nil, nil
	c.derived, c.dst = nil, nil
	clear(c.edbRels)
	c.rows = 0
	ctxPool.Put(c)
}

// instanceOf converts interned relations, indexed by slot, back to
// constants; names is the slot -> predicate table.
func instanceOf(rels []*iRel, names []string, in *Interner) relation.Instance {
	syms := in.snapshot()
	out := relation.NewInstance()
	for slot, ir := range rels {
		if ir == nil {
			continue
		}
		rel := out.Ensure(names[slot], ir.arity)
		for _, row := range ir.rows {
			t := make(relation.Tuple, len(row))
			for i, s := range row {
				t[i] = syms[s]
			}
			rel.Add(t)
		}
	}
	return out
}

// runRule streams the rule's pipeline from operator 0.
func (c *evalCtx) runRule(cr *compiledRule) {
	c.step(cr, 0)
}

// resolve returns the value an argSpec denotes under the current frame.
// Compile-time ordering guarantees bound registers were written upstream.
func (c *evalCtx) resolve(a argSpec) uint32 {
	if a.constArg {
		return a.sym
	}
	return c.regs[a.reg]
}

// step executes cr.ops[i:] under the current register frame; reaching the
// end emits the head projection into the derived store.
func (c *evalCtx) step(cr *compiledRule, i int) {
	if i == len(cr.ops) {
		c.emit(cr)
		return
	}
	o := &cr.ops[i]
	switch o.kind {
	case opFilterNeq:
		if c.resolve(o.left) != c.resolve(o.right) {
			c.step(cr, i+1)
		}
	case opFilterEq:
		if c.resolve(o.left) == c.resolve(o.right) {
			c.step(cr, i+1)
		}
	case opBindEq:
		c.regs[o.left.reg] = c.resolve(o.right)
		c.step(cr, i+1)
	case opProbe, opAnti:
		rel := c.rel(o.slot)
		hit := false
		if rel.arity == len(o.args) {
			// The scratch row is dead once the membership test returns, so
			// one buffer serves every probe depth.
			row := c.scratch(len(o.args))
			for j, a := range o.args {
				row[j] = c.resolve(a)
			}
			c.keyBuf, hit = rel.has(row, c.keyBuf)
		}
		if (o.kind == opProbe) == hit {
			c.step(cr, i+1)
		}
	case opScan:
		rel := c.rel(o.slot)
		if rel.arity != len(o.args) {
			return
		}
		if o.useIndex {
			// Index-backed join: only rows whose first column matches the
			// resolved first argument. The index slice is append-only, so
			// snapshot its length — rows added by this very rule (recursive
			// strata) are picked up on the next fixpoint pass, matching the
			// tree evaluator's pass-at-a-time semantics.
			idxRows := rel.idx()[c.resolve(o.args[0])]
			n := len(idxRows)
			for k := 0; k < n; k++ {
				c.rows++
				if c.matchRow(o, rel.rows[idxRows[k]], 1) {
					c.step(cr, i+1)
				}
			}
			return
		}
		n := len(rel.rows)
		for k := 0; k < n; k++ {
			c.rows++
			if c.matchRow(o, rel.rows[k], 0) {
				c.step(cr, i+1)
			}
		}
	}
}

// matchRow checks the row against the scan's bound positions and binds its
// free ones, starting at position from (1 when the first-column index
// already matched position 0... except the index only guarantees equality
// of the first symbol, which is exactly position 0's check, so binding
// specs at position 0 still need the write).
func (c *evalCtx) matchRow(o *op, row []uint32, from int) bool {
	// Position 0 under an index scan: equality is guaranteed, but a free
	// register spec must still bind (a repeated variable may check it).
	if from == 1 {
		a := o.args[0]
		if !a.constArg && !a.bound {
			c.regs[a.reg] = row[0]
		}
	}
	for j := from; j < len(o.args); j++ {
		a := o.args[j]
		if a.constArg {
			if row[j] != a.sym {
				return false
			}
		} else if a.bound {
			if row[j] != c.regs[a.reg] {
				return false
			}
		} else {
			c.regs[a.reg] = row[j]
		}
	}
	return true
}

// emit projects the register frame through the head spec into the derived
// store. The head row is assembled in scratch and copied into the
// relation's own storage only if it is new.
func (c *evalCtx) emit(cr *compiledRule) {
	h := &cr.head
	ir := c.derived[h.slot]
	if ir == nil {
		ir = c.fresh(h.slot, h.arity)
	}
	row := c.scratch(len(h.args))
	for i, a := range h.args {
		row[i] = c.resolve(a)
	}
	var added bool
	if c.keyBuf, added = ir.claim(row, c.keyBuf); added {
		ir.appendRow(append(ir.newRow(), row...))
		c.changed = true
	}
}

// fresh starts the derived relation for slot: the destination store's
// recycled relation if it left one of this arity, a new one otherwise.
func (c *evalCtx) fresh(slot int32, arity int) *iRel {
	var ir *iRel
	if c.dst != nil {
		ir = c.dst.take(slot, arity)
	} else {
		ir = newIRel(arity)
	}
	c.derived[slot] = ir
	return ir
}

// scratch returns the ctx's scratch row with length n. A probe's row is
// dead once the membership test returns and an emit's once the insert
// returns, so one buffer serves every depth of the pipeline.
func (c *evalCtx) scratch(n int) []uint32 {
	if cap(c.probe) < n {
		c.probe = make([]uint32, n)
	}
	return c.probe[:n]
}
