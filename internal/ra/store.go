package ra

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Store is a set of relations resident in the executor's own form: rows of
// interned symbols, with the membership set and the first-column index
// built on first use and kept current by every append. It is the
// executor's second kind of EDB beside a dlog.DB: Plan.EvalStores reads a
// store in place, where Plan.EvalCached interns what the DB hands it, so a
// relation that lives across many evaluations is interned once, when it
// enters the store, and grows by the rows added to it — never by a copy.
//
// Relations are held by predicate slot (see Interner), the index the
// executor's operators carry, so reading one is a slice index.
//
// A Store has one owner at a time — a run's state and database stores
// whoever holds the session's shard lock, a step's scratch stores the step
// that borrowed them (core.Stepper) — so nothing in it is locked, and the
// access structures are built lazily under evaluation. Only the Interner
// behind it is shared, and the instance backing a database store, which
// the store only reads.
type Store struct {
	in   *Interner
	rels []*iRel // by slot; nil = the store does not hold the predicate
	// spare holds, by slot, emptied relations kept for reuse (see recycle).
	spare []*iRel
	// src, when set, backs the store: a relation of src is interned the
	// first time it is looked up, and src must not change afterwards.
	src relation.Instance
	// lacks marks, by slot, the predicates src was found not to hold.
	lacks  []bool
	keyBuf []byte
}

// NewStore returns an empty store over the intern table. A non-nil src
// backs it lazily: each of src's relations is interned on first reference
// (a fixed database of which a program reads two relations never pays for
// the others, and pays for those two on the first evaluation, not before).
func NewStore(in *Interner, src relation.Instance) *Store {
	return &Store{in: in, src: src}
}

// grow makes the relation table at least n slots long.
func (s *Store) grow(n int) {
	if n > len(s.rels) {
		s.rels = append(s.rels, make([]*iRel, n-len(s.rels))...)
	}
}

// take returns an empty relation for slot: its spare, when the store
// recycled one of this arity, or a new one.
func (s *Store) take(slot int32, arity int) *iRel {
	if int(slot) < len(s.spare) {
		if ir := s.spare[slot]; ir != nil && ir.arity == arity {
			s.spare[slot] = nil
			return ir
		}
	}
	return newIRel(arity)
}

// lookup resolves a slot the way dlog.MultiDB does one instance: holding
// the predicate is what counts, not holding tuples under it. nil means the
// store does not hold it.
func (s *Store) lookup(slot int32) *iRel {
	if int(slot) < len(s.rels) && s.rels[slot] != nil {
		return s.rels[slot]
	}
	if s.src == nil || int(slot) < len(s.lacks) && s.lacks[slot] {
		return nil
	}
	rel := s.src[s.in.predNames()[slot]]
	if rel == nil {
		if int(slot) >= len(s.lacks) {
			s.lacks = append(s.lacks, make([]bool, int(slot)+1-len(s.lacks))...)
		}
		s.lacks[slot] = true
		return nil
	}
	s.grow(int(slot) + 1)
	s.rels[slot] = internRel(rel, s.in)
	return s.rels[slot]
}

// Put interns rel under name, replacing what the store held there. It
// assigns name a slot if it has none: seed a store only with the names of
// a schema.
func (s *Store) Put(name string, rel *relation.Rel) {
	slot := s.in.Slot(name)
	s.grow(int(slot) + 1)
	s.rels[slot] = internRel(rel, s.in)
}

// Ensure makes the store hold name, as an empty relation if it did not.
// Like Put, it may assign name a slot.
func (s *Store) Ensure(name string, arity int) {
	slot := s.in.Slot(name)
	s.grow(int(slot) + 1)
	if s.rels[slot] == nil {
		s.rels[slot] = newIRel(arity)
	}
}

// Reset replaces the store's relations with src's, interned now into
// their slots — how a step's input is swapped in (nil empties the store).
// A name that has no slot is one no plan over the intern table reads, and
// is skipped: resolving it never assigns one. The relations the store held
// are recycled, so nothing may still read them.
func (s *Store) Reset(src relation.Instance) {
	s.recycle(0)
	for name, rel := range src {
		slot, ok := s.in.lookupSlot(name)
		if !ok {
			continue
		}
		s.grow(int(slot) + 1)
		s.rels[slot] = internInto(s.take(slot, rel.Arity()), rel, s.in)
	}
}

// recycle empties the store, keeping each relation it held that is worth
// keeping as its slot's spare, and makes both per-slot tables at least n
// long. Only a store that is evaluated into or Reset ever has spares.
func (s *Store) recycle(n int) {
	s.grow(n)
	if len(s.spare) < len(s.rels) {
		s.spare = append(s.spare, make([]*iRel, len(s.rels)-len(s.spare))...)
	}
	for slot, ir := range s.rels {
		if ir == nil {
			continue
		}
		s.rels[slot] = nil
		if ir.recycle() {
			s.spare[slot] = ir
		}
	}
}

// Merge folds the relations an evaluation derived into the store. A slot
// marked in keep gains the derived rows it does not hold yet, in place —
// the set dedupes, set and index grow by the new rows only. Every other
// slot is replaced by what was derived for it, which is nothing — the
// relation is emptied — when derived does not hold the slot. derived gives
// its relations up and is left empty: a replaced (or first-seen) relation
// is adopted, not copied, and kept rows are retained by the store, while
// the relation that carried them stays with derived as its slot's spare,
// so the next evaluation into derived does not allocate it again.
func (s *Store) Merge(derived *Store, keep []bool) {
	s.grow(len(derived.rels))
	for slot, ir := range s.rels {
		if ir == nil {
			continue
		}
		var d *iRel
		if slot < len(derived.rels) {
			d = derived.rels[slot]
		}
		cumulative := slot < len(keep) && keep[slot]
		switch {
		case d == nil:
			if !cumulative && len(ir.rows) > 0 {
				s.rels[slot] = newIRel(ir.arity)
			}
		case !cumulative || len(ir.rows) == 0:
			s.rels[slot] = d
		default:
			taken := false
			for _, row := range d.rows {
				var added bool
				s.keyBuf, added = ir.add(row, s.keyBuf)
				taken = taken || added
			}
			derived.keepSpare(slot, d, taken)
		}
	}
	for slot, d := range derived.rels {
		if d != nil && s.rels[slot] == nil {
			s.rels[slot] = d
		}
	}
	clear(derived.rels)
}

// RowsAt returns the rows the store holds at slot, as symbols of its
// Interner, in the order they were added: the relation's own storage, which
// the caller reads and does not keep past the store's next change. A
// backing source is not consulted; nil means the store holds no rows there,
// as it does at a negative slot.
func (s *Store) RowsAt(slot int32) [][]uint32 {
	if slot >= 0 && int(slot) < len(s.rels) && s.rels[slot] != nil {
		return s.rels[slot].rows
	}
	return nil
}

// keepSpare makes ir, whose rows the store has merged into another
// relation, slot's spare: the next evaluation into the store reuses its
// maps and row slice, and its row storage too unless taken says the other
// relation kept some of its rows, which live there.
func (s *Store) keepSpare(slot int, ir *iRel, taken bool) {
	if taken {
		ir.arena = nil
	}
	if !ir.recycle() {
		return
	}
	if len(s.spare) <= slot {
		s.spare = append(s.spare, make([]*iRel, slot+1-len(s.spare))...)
	}
	s.spare[slot] = ir
}

// Rows returns the number of rows the store holds, over all its relations,
// in O(slots). A store whose relations are only ever appended to holds the
// same rows while this count stays the same.
func (s *Store) Rows() int {
	n := 0
	for _, ir := range s.rels {
		if ir != nil {
			n += len(ir.rows)
		}
	}
	return n
}

// Instance materializes the resident relations as constants: a fresh
// instance sharing nothing with the store.
func (s *Store) Instance() relation.Instance {
	return instanceOf(s.rels, s.in.predNames(), s.in)
}

// Writer is what a View and a core.LogTape encode through: codec.Encoder's
// varint and interned-string primitives.
type Writer interface {
	Uvarint(uint64)
	Str(string)
}

// View is a store's relations as they were when View was called, each in
// sorted order: what Instance would have returned then, held without
// materializing a constant. Later appends to the store are not in it, and a
// relation the store replaces later stays in it as it was.
type View struct {
	syms []relation.Const
	rels []viewRel // the relations holding rows, by name
}

type viewRel struct {
	name  string
	arity int
	rows  [][]uint32
	order []int32
}

// Orders keeps, from one View of a store to the next, each relation's
// rows in sorted order: by slot, the relation an order was computed for
// and the permutation of its rows into relation.Tuple.Less order; rows
// past the permutation's length came later. The zero value is ready to
// use. It references the relations it ordered, so a relation the store
// has replaced since the last View stays reachable until the next.
type Orders struct {
	slots []slotOrder
}

type slotOrder struct {
	rel   *iRel
	order []int32
}

// View returns the store's relations as a View. o carries each relation's
// sorted order from one call to the next, so a call sorts only the rows
// appended since the last one and merges them in; a relation the store
// replaced (Merge, Put) since is sorted whole.
func (s *Store) View(o *Orders) *View {
	names := s.in.predNames()
	v := &View{syms: s.in.Symbols()}
	if len(o.slots) < len(s.rels) {
		o.slots = append(o.slots, make([]slotOrder, len(s.rels)-len(o.slots))...)
	}
	for slot, ir := range s.rels {
		so := &o.slots[slot]
		if ir == nil || len(ir.rows) == 0 {
			*so = slotOrder{}
			continue
		}
		if so.rel != ir {
			*so = slotOrder{rel: ir}
		}
		so.order = sortRows(ir.rows, so.order, v.syms)
		n := len(ir.rows)
		v.rels = append(v.rels, viewRel{names[slot], ir.arity, ir.rows[:n:n], so.order})
	}
	sort.Slice(v.rels, func(i, j int) bool { return v.rels[i].name < v.rels[j].name })
	return v
}

// Encode writes the view as codec.Encoder.Instance writes the instance it
// stands for — the number of relations holding tuples; per relation, in
// name order, its name, arity, tuple count and constants, the tuples in
// relation.Tuple.Less order — byte for byte.
func (v *View) Encode(w Writer) {
	w.Uvarint(uint64(len(v.rels)))
	for _, r := range v.rels {
		w.Str(r.name)
		w.Uvarint(uint64(r.arity))
		w.Uvarint(uint64(len(r.order)))
		for _, i := range r.order {
			for _, sym := range r.rows[i] {
				w.Str(string(v.syms[sym]))
			}
		}
	}
}

// sortRows returns the permutation of rows into relation.Tuple.Less order,
// given old, that of rows' first len(old): the rows after those are sorted
// on their own, then merged with old into a new slice, so an order handed
// out earlier is never rewritten. syms must resolve every symbol of rows.
func sortRows(rows [][]uint32, old []int32, syms []relation.Const) []int32 {
	n := len(rows)
	if len(old) == n {
		return old
	}
	cmp := func(a, b int32) int {
		x, y := rows[a], rows[b]
		for k := range x {
			if x[k] != y[k] {
				return strings.Compare(string(syms[x[k]]), string(syms[y[k]]))
			}
		}
		return 0
	}
	order := make([]int32, n)
	fresh := order[:n-len(old)]
	for i := range fresh {
		fresh[i] = int32(len(old) + i)
	}
	slices.SortFunc(fresh, cmp)
	// Merge from the back. The fresh rows sort at the front of order, and
	// the write position stays past the last one not yet merged; once the
	// old rows are all placed, the fresh rows left are where they belong.
	i, j := len(old)-1, len(fresh)-1
	for k := n - 1; i >= 0; k-- {
		if j >= 0 && cmp(fresh[j], old[i]) > 0 {
			order[k] = fresh[j]
			j--
		} else {
			order[k] = old[i]
			i--
		}
	}
	return order
}
