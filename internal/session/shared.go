package session

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

// In the paper a business model is one transducer over one database; what
// sets one customer's run apart is its input sequence, cumulated in its
// state, and its log (§2). So a session holds only those: the machine it
// runs and the database it reads are shared with every session of the same
// model and the same facts, and a step's scratch is borrowed for the step
// (core.Stepper). Nothing shared is written after it is built — a Machine
// is immutable once constructed, and a database in the table below is a
// clone no caller holds — so sessions on different shards read them
// without a lock.

// registered is one registry model as sessions run it: its machine, built
// once, and its demo database, entered in the database table.
type registered struct {
	mach *core.Machine
	db   *sharedDB
}

// registry holds one entry per registry model a session has named: at most
// one per name models.Names lists, since an unknown name is never stored.
var registry sync.Map // model name -> *registered

// lookupModel returns the shared form of the named registry model, building
// it on first use, or nil if the registry has no such model.
func lookupModel(name string) *registered {
	if v, ok := registry.Load(name); ok {
		return v.(*registered)
	}
	mach := models.Get(name)
	if mach == nil {
		return nil
	}
	v, _ := registry.LoadOrStore(name, &registered{mach: mach, db: shareDB(models.DefaultDB(name))})
	return v.(*registered)
}

// getModel resolves a registry name to its machine, shared by every session
// of the model (nil if unknown): open, WAL replay, snapshot restore and
// install all run the one machine.
func getModel(name string) *core.Machine {
	if r := lookupModel(name); r != nil {
		return r.mach
	}
	return nil
}

// resolveModel is the compose.Resolver network sessions build with: a
// registry node gets the model's shared machine and its demo database,
// which compose.Spec.Build clones for the node.
func resolveModel(name string) (*core.Machine, relation.Instance, error) {
	r := lookupModel(name)
	if r == nil {
		return nil, nil, fmt.Errorf("models: unknown model %q", name)
	}
	return r.mach, r.db.inst, nil
}

// sharedDB is a database as the table hands it out. Sessions hold it by
// this pointer, and holding it is what keeps its table entry: the table
// refers to it weakly.
type sharedDB struct{ inst relation.Instance }

// dbTable holds every database a machine session reads, one per content:
// an open's database (its own or its model's demo one) and a restored
// image's go through shareDB, and sessions whose databases hold the same
// facts read one instance. Entries are weak, so the table holds no more
// databases than live sessions do.
var dbTable = struct {
	mu sync.Mutex
	m  map[relation.Digest]weak.Pointer[sharedDB]
}{m: make(map[relation.Digest]weak.Pointer[sharedDB])}

// dbKey is what a collected database's cleanup needs to find its entry.
type dbKey struct {
	d  relation.Digest
	wp weak.Pointer[sharedDB]
}

// shareDB returns the table's database exactly equal to db — the same
// relation names with the same arities and facts — entering a clone of db
// when the table holds none, so nothing the caller does to db later reaches
// a session. A database whose digest is taken by a different one (two that
// differ only in empty relations, or a collision) gets a clone of its own,
// outside the table. A nil db is the empty database.
func shareDB(db relation.Instance) *sharedDB {
	d := db.Digest()
	dbTable.mu.Lock()
	s := dbTable.m[d].Value()
	dbTable.mu.Unlock()
	if s != nil && sameDB(s.inst, db) {
		return s
	}
	fresh := &sharedDB{inst: db.Clone()}
	dbTable.mu.Lock()
	defer dbTable.mu.Unlock()
	if s = dbTable.m[d].Value(); s != nil {
		if sameDB(s.inst, db) {
			return s
		}
		return fresh
	}
	wp := weak.Make(fresh)
	dbTable.m[d] = wp
	runtime.AddCleanup(fresh, dropDB, dbKey{d, wp})
	return fresh
}

// dropDB removes a collected database's entry, unless a later database of
// the same digest has taken its place.
func dropDB(k dbKey) {
	dbTable.mu.Lock()
	if dbTable.m[k.d] == k.wp {
		delete(dbTable.m, k.d)
	}
	dbTable.mu.Unlock()
}

// sameDB reports whether a and b hold the same relation names, each with
// the same arity and the same facts. Unlike relation.Instance.Equal it
// tells an empty relation from an absent one, and the arities of empty
// relations apart: a session on a shared database reads, and hands to
// Peek, exactly the instance its own clone would have been.
func sameDB(a, b relation.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for name, r := range a {
		o, ok := b[name]
		if !ok || o.Arity() != r.Arity() || !r.Equal(o) {
			return false
		}
	}
	return true
}
