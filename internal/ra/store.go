package ra

import "repro/internal/relation"

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
// A Store has one owner at a time (a session's shard goroutine): nothing
// in it is locked, and the access structures are built lazily under
// evaluation. Only the Interner behind it is shared.
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
	slot := s.in.slot(name)
	s.grow(int(slot) + 1)
	s.rels[slot] = internRel(rel, s.in)
}

// Ensure makes the store hold name, as an empty relation if it did not.
// Like Put, it may assign name a slot.
func (s *Store) Ensure(name string, arity int) {
	slot := s.in.slot(name)
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
// is adopted, not copied, and kept rows are retained by the store.
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
			for _, row := range d.rows {
				s.keyBuf, _ = ir.add(row, s.keyBuf)
			}
		}
	}
	for slot, d := range derived.rels {
		if d != nil && s.rels[slot] == nil {
			s.rels[slot] = d
		}
	}
	clear(derived.rels)
}

// Instance materializes the resident relations as constants: a fresh
// instance sharing nothing with the store.
func (s *Store) Instance() relation.Instance {
	return instanceOf(s.rels, s.in.predNames(), s.in)
}
