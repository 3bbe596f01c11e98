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
// Both maps are lazy: the membership set materializes on the first probe
// (or the first derived-store insert, which needs it for dedup) and the
// index on the first indexed scan. A scan-only relation carries just its
// rows; once built, each structure is maintained incrementally by add.
type iRel struct {
	arity   int
	rows    [][]uint32
	set     map[string]struct{}
	byFirst map[uint32][]int32 // first symbol -> row indices
}

func newIRel(arity int) *iRel {
	return &iRel{arity: arity}
}

// buildSet materializes the membership set from the current rows.
func (r *iRel) buildSet() {
	r.set = make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		var k string
		buf, k = rowKey(row, buf)
		r.set[k] = struct{}{}
	}
}

// build materializes the access structures named by the need flags. The
// interned-relation cache calls this before sharing an iRel, so shared
// copies are immutable thereafter.
func (r *iRel) build(need uint8) {
	if need&needSet != 0 && r.set == nil {
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

// key packs a row into a byte-string map key (4 bytes per symbol). buf is
// reused across calls to keep the hot loop allocation-free.
func rowKey(row []uint32, buf []byte) ([]byte, string) {
	buf = buf[:0]
	for _, s := range row {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return buf, string(buf)
}

// add inserts a row, returning true if new. The row slice is retained.
func (r *iRel) add(row []uint32, buf []byte) ([]byte, bool) {
	if r.set == nil {
		r.buildSet()
	}
	buf, k := rowKey(row, buf)
	if _, ok := r.set[k]; ok {
		return buf, false
	}
	r.set[k] = struct{}{}
	if r.byFirst != nil {
		r.byFirst[row[0]] = append(r.byFirst[row[0]], int32(len(r.rows)))
	}
	r.rows = append(r.rows, row)
	return buf, true
}

func (r *iRel) has(row []uint32, buf []byte) ([]byte, bool) {
	if r.set == nil {
		r.buildSet()
	}
	buf, k := rowKey(row, buf)
	_, ok := r.set[k]
	return buf, ok
}

// internRel converts an EDB relation to interned form. Misses are interned
// through the shared table; within one relation, repeated constants hit the
// table's read path. The source relation is a set already, so rows append
// without a dedup pass; set and index materialize only if a plan probes or
// index-scans the predicate.
func internRel(rel *relation.Rel, in *Interner) *iRel {
	ir := newIRel(rel.Arity())
	if n := rel.Len(); n > 0 {
		ir.rows = make([][]uint32, 0, n)
	}
	rel.Range(func(t relation.Tuple) bool {
		row := make([]uint32, len(t))
		for i, c := range t {
			row[i] = in.ID(c)
		}
		ir.rows = append(ir.rows, row)
		return true
	})
	return ir
}

// evalCtx is the per-Eval execution state: the register frame, the derived
// store, and the EDB — a dlog.DB interned on reference (through the cache,
// if any), or resident stores read in place. Plans are shared across
// sessions; the ctx is what makes a concurrent Eval reentrant.
type evalCtx struct {
	plan    *Plan
	edb     dlog.DB
	cache   *Cache
	stores  []*Store // when set, the EDB: the first store holding a name wins
	regs    []uint32
	derived map[string]*iRel
	edbRels map[string]*iRel // nil entry = relation absent in the EDB
	keyBuf  []byte
	probe   []uint32 // scratch row for (anti-)semijoin probes
	changed bool
	rows    int64 // iterator rows pulled, flushed to stats at Eval end
}

// ctxPool recycles evalCtx frames (and their maps/slices) across Evals;
// the step path runs two Evals per transducer step, so this keeps the
// fixed per-Eval allocation cost near zero.
var ctxPool = sync.Pool{New: func() any {
	return &evalCtx{
		derived: make(map[string]*iRel),
		edbRels: make(map[string]*iRel),
	}
}}

// rel resolves a predicate the way the tree evaluator's lookupChain does:
// the derived store shadows the EDB as soon as the predicate has at least
// one derived tuple; otherwise the EDB relation (interned and cached).
// Under a no-shadow plan (state programs) reads always go to the EDB.
func (c *evalCtx) rel(pred string) *iRel {
	if !c.plan.noShadow {
		if ir, ok := c.derived[pred]; ok {
			return ir
		}
	}
	if ir, ok := c.edbRels[pred]; ok {
		return ir
	}
	var ir *iRel
	if c.stores != nil {
		for _, s := range c.stores {
			if r, ok := s.lookup(pred); ok {
				ir = r
				break
			}
		}
	} else if c.edb != nil {
		if rel := c.edb.Rel(pred); rel != nil {
			if c.cache != nil {
				ir = c.cache.intern(rel, c.plan.interner, c.plan.needs[pred])
			} else {
				ir = internRel(rel, c.plan.interner)
			}
		}
	}
	c.edbRels[pred] = ir
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
	ctx.run()
	out := instanceOf(ctx.derived, p.interner)
	clear(ctx.derived)
	ctx.end()
	return out, nil
}

// EvalStores is Eval over resident stores: a body predicate reads the first
// store that holds its name (dlog.MultiDB's rule) in place — nothing is
// interned, copied or scanned to get at it. The derived relations replace
// dst's contents and stay interned, so the caller can fold them into a
// store (Store.Merge) or materialize them (Store.Instance); dst must not be
// one of the stores.
func (p *Plan) EvalStores(dst *Store, stores []*Store) {
	ctx := p.begin()
	ctx.stores = stores
	clear(dst.rels)
	pooled := ctx.derived
	ctx.derived = dst.rels
	ctx.run()
	ctx.derived = pooled
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
	return ctx
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
	clear(c.edbRels)
	c.rows = 0
	ctxPool.Put(c)
}

// instanceOf converts interned relations back to constants.
func instanceOf(rels map[string]*iRel, in *Interner) relation.Instance {
	syms := in.snapshot()
	out := relation.NewInstance()
	for pred, ir := range rels {
		rel := out.Ensure(pred, ir.arity)
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
		rel := c.rel(o.pred)
		hit := false
		if rel != nil && rel.arity == len(o.args) {
			// The scratch row is dead once the membership test returns, so
			// one buffer serves every probe depth.
			if cap(c.probe) < len(o.args) {
				c.probe = make([]uint32, len(o.args))
			}
			row := c.probe[:len(o.args)]
			for j, a := range o.args {
				row[j] = c.resolve(a)
			}
			c.keyBuf, hit = rel.has(row, c.keyBuf)
		}
		if (o.kind == opProbe) == hit {
			c.step(cr, i+1)
		}
	case opScan:
		rel := c.rel(o.pred)
		if rel == nil || rel.arity != len(o.args) {
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
// store.
func (c *evalCtx) emit(cr *compiledRule) {
	ir, ok := c.derived[cr.head.pred]
	if !ok {
		ir = newIRel(cr.head.arity)
		c.derived[cr.head.pred] = ir
	}
	row := make([]uint32, len(cr.head.args))
	for i, a := range cr.head.args {
		row[i] = c.resolve(a)
	}
	var added bool
	c.keyBuf, added = ir.add(row, c.keyBuf)
	if added {
		c.changed = true
	}
}
