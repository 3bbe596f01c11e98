// Package ra is the compiled streaming relational-algebra step engine: it
// lowers a dlog.Program once into a Plan — selections, index-backed joins,
// projections, and (anti-)semijoins for negated literals — that is then
// executed per step as composed pull loops over interned relations, with no
// materialized intermediates except the per-stratum fixpoint deltas.
//
// The tree-walking evaluator in package dlog re-derives everything about a
// program on every call: dependency layers, literal scheduling, and
// variable bindings held in string-keyed maps. A Plan does all of that
// once at compile time — variables become integer registers, constants
// become interned integer symbols, predicates become slots, literal order
// is fixed by a join-order planner — so the per-step hot loop is array
// indexing and integer equality. Plan.Eval is observationally equivalent to dlog.EvalStratified
// (the differential suite in this package pins that, tuple for tuple).
package ra

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Interner assigns dense integer symbols to constants so tuple comparison
// in the executor's hot loop is integer equality instead of string
// equality. One Interner is shared by a machine's output and state plans
// (the "store"), persists across Eval calls, and is safe for concurrent
// use — many sessions of one model share the cached plans.
//
// It also numbers predicates: every relation name a plan over the table
// reads or derives, and every state relation a Store is seeded with, gets a
// dense slot, so the executor finds a relation by indexing a slice and
// never hashes a name per operator. Slots are assigned only while a plan
// compiles and while a store is seeded (Store.Put, Store.Ensure); resolving
// a name at step time never assigns one, so the table is bounded by the
// programs and schemas that use it, not by the names their inputs carry.
type Interner struct {
	mu   sync.RWMutex
	ids  map[relation.Const]uint32
	syms []relation.Const

	predMu sync.Mutex                // serializes slot assignment
	preds  atomic.Pointer[predTable] // read without locking
}

// predTable is one version of the predicate slot table. It is immutable:
// assigning a slot publishes a new version, so readers never lock.
type predTable struct {
	slots map[string]int32
	names []string // slot -> name
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[relation.Const]uint32)}
}

// ID interns c, returning its stable symbol.
func (in *Interner) ID(c relation.Const) uint32 {
	in.mu.RLock()
	id, ok := in.ids[c]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[c]; ok {
		return id
	}
	id = uint32(len(in.syms))
	in.ids[c] = id
	in.syms = append(in.syms, c)
	return id
}

// Sym returns the constant a symbol denotes. Symbols only come from ID, so
// the index is always in range.
func (in *Interner) Sym(id uint32) relation.Const {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.syms[id]
}

// Symbols returns the symbol table as of now, indexed by symbol: shared,
// append-only state to be treated as read-only. A caller resolving many
// symbols reads them through it instead of locking once per Sym.
func (in *Interner) Symbols() []relation.Const { return in.snapshot() }

// Len returns the number of interned constants.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.syms)
}

// lookupSlot resolves a predicate name without assigning a slot.
func (in *Interner) lookupSlot(name string) (int32, bool) {
	t := in.preds.Load()
	if t == nil {
		return 0, false
	}
	slot, ok := t.slots[name]
	return slot, ok
}

// slot returns name's slot, assigning the next one if name has none. The
// table is copied on every assignment; assignments happen at compile and
// store-seeding time only, a few dozen per program.
func (in *Interner) slot(name string) int32 {
	if slot, ok := in.lookupSlot(name); ok {
		return slot
	}
	in.predMu.Lock()
	defer in.predMu.Unlock()
	old := in.preds.Load()
	if old == nil {
		old = &predTable{}
	}
	if slot, ok := old.slots[name]; ok {
		return slot
	}
	slot := int32(len(old.names))
	t := &predTable{
		slots: make(map[string]int32, len(old.slots)+1),
		names: append(old.names[:slot:slot], name),
	}
	for n, s := range old.slots {
		t.slots[n] = s
	}
	t.slots[name] = slot
	in.preds.Store(t)
	return slot
}

// predNames returns the slot -> name table as of now; the slice is shared
// and must be treated as read-only.
func (in *Interner) predNames() []string {
	if t := in.preds.Load(); t != nil {
		return t.names
	}
	return nil
}

// snapshot returns the current symbol table; the returned slice is
// append-only shared state and must be treated as read-only. An Eval call
// resolves symbols through it without per-symbol locking.
func (in *Interner) snapshot() []relation.Const {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.syms
}
