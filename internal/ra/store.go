package ra

import "repro/internal/relation"

// Store is a set of named relations resident in the executor's own form:
// rows of interned symbols, with the membership set and the first-column
// index built on first use and kept current by every append. It is the
// executor's second kind of EDB beside a dlog.DB: Plan.EvalStores reads a
// store in place, where Plan.EvalCached interns what the DB hands it, so a
// relation that lives across many evaluations is interned once, when it
// enters the store, and grows by the rows added to it — never by a copy.
//
// A Store has one owner at a time (a session's shard goroutine): nothing
// in it is locked, and the access structures are built lazily under
// evaluation. Only the Interner behind it is shared.
type Store struct {
	in   *Interner
	rels map[string]*iRel
	// src, when set, backs the store: a relation of src is interned the
	// first time it is looked up, and src must not change afterwards.
	src    relation.Instance
	keyBuf []byte
}

// NewStore returns an empty store over the intern table. A non-nil src
// backs it lazily: each of src's relations is interned on first reference
// (a fixed database of which a program reads two relations never pays for
// the others, and pays for those two on the first evaluation, not before).
func NewStore(in *Interner, src relation.Instance) *Store {
	return &Store{in: in, rels: make(map[string]*iRel), src: src}
}

// lookup resolves a name the way dlog.MultiDB does one instance: holding
// the name is what counts, not holding tuples under it.
func (s *Store) lookup(pred string) (*iRel, bool) {
	if ir, ok := s.rels[pred]; ok {
		return ir, true
	}
	rel := s.src[pred]
	if rel == nil {
		return nil, false
	}
	ir := internRel(rel, s.in)
	s.rels[pred] = ir
	return ir, true
}

// Put interns rel under name, replacing what the store held there.
func (s *Store) Put(name string, rel *relation.Rel) {
	s.rels[name] = internRel(rel, s.in)
}

// Ensure makes the store hold name, as an empty relation if it did not.
func (s *Store) Ensure(name string, arity int) {
	if _, ok := s.rels[name]; !ok {
		s.rels[name] = newIRel(arity)
	}
}

// Reset empties the store and backs it with src (see NewStore), keeping
// the store's own allocation: how a per-step input is swapped in.
func (s *Store) Reset(src relation.Instance) {
	clear(s.rels)
	s.src = src
}

// Merge folds the relations an evaluation derived into the store. A name
// in keep gains the derived rows it does not hold yet, in place — the set
// dedupes, set and index grow by the new rows only. Every other name is
// replaced by what was derived for it, which is nothing — the relation is
// emptied — when derived does not hold the name. derived gives its
// relations up: a replaced (or first-seen) relation is adopted, not copied.
func (s *Store) Merge(derived *Store, keep map[string]bool) {
	for name, ir := range s.rels {
		d := derived.rels[name]
		switch {
		case d == nil:
			if !keep[name] && len(ir.rows) > 0 {
				s.rels[name] = newIRel(ir.arity)
			}
		case !keep[name] || len(ir.rows) == 0:
			s.rels[name] = d
		default:
			for _, row := range d.rows {
				s.keyBuf, _ = ir.add(row, s.keyBuf)
			}
		}
	}
	for name, d := range derived.rels {
		if _, ok := s.rels[name]; !ok {
			s.rels[name] = d
		}
	}
}

// Instance materializes the resident relations as constants: a fresh
// instance sharing nothing with the store.
func (s *Store) Instance() relation.Instance {
	return instanceOf(s.rels, s.in)
}
