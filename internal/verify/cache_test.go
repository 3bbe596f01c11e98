package verify

import (
	"testing"

	"repro/internal/dlog"
	"repro/internal/fol"
	"repro/internal/models"
	"repro/internal/relation"
)

// TestCacheKeyScopedByTag pins the fingerprint scoping of the memo cache:
// grounding problems erase the machine into bare structure, so two machines
// whose translations happen to produce the same formula must still get
// distinct cache entries when one process-wide cache serves many models.
// The Tag (the machine fingerprint) is what keeps them apart.
func TestCacheKeyScopedByTag(t *testing.T) {
	mk := func(tag string) *fol.Problem {
		return &fol.Problem{
			Tag:     tag,
			Formula: fol.Atom{Pred: "deliver", Args: []dlog.Term{{Name: "x", Var: true}}},
			Free:    map[string]int{"deliver": 1},
		}
	}
	a, b := problemKey(mk("machine-a")), problemKey(mk("machine-b"))
	if a == b {
		t.Fatal("identical formulas under different tags share a cache key")
	}
	if a != problemKey(mk("machine-a")) {
		t.Fatal("cache key is not deterministic")
	}
}

// TestCacheKeyInjective: problems that differ only in a constant holding
// the key's own separator bytes get different keys. Unescaped, the fixed
// extension {("a\x03b")} read as the two tuples {("a"), ("b")}, and the
// extra constant "a\x01b" as the two constants "a" and "b".
func TestCacheKeyInjective(t *testing.T) {
	mk := func(fixed []relation.Tuple, consts ...relation.Const) *fol.Problem {
		r := relation.NewRel(1)
		for _, tu := range fixed {
			r.Add(tu)
		}
		return &fol.Problem{
			Tag:         "machine",
			Formula:     fol.Atom{Pred: "deliver", Args: []dlog.Term{{Name: "x", Var: true}}},
			Fixed:       map[string]*relation.Rel{"r": r},
			Free:        map[string]int{"deliver": 1},
			ExtraConsts: consts,
		}
	}
	pairs := [][2]*fol.Problem{
		{mk([]relation.Tuple{{"a\x03b"}}), mk([]relation.Tuple{{"a"}, {"b"}})},
		{mk(nil, "a\x01b"), mk(nil, "a", "b")},
		{mk(nil, "\x00"), mk(nil)},
	}
	for _, p := range pairs {
		if problemKey(p[0]) == problemKey(p[1]) {
			t.Errorf("fixed %s, consts %q and fixed %s, consts %q share the key %q",
				p[0].Fixed["r"], p[0].ExtraConsts, p[1].Fixed["r"], p[1].ExtraConsts, problemKey(p[0]))
		}
	}
}

// TestCacheSharedAcrossModels runs two different models through one shared
// cache and checks neither answer contaminates the other — the end-to-end
// face of the tag scoping.
func TestCacheSharedAcrossModels(t *testing.T) {
	cache := NewCache()
	db := models.MagazineDB().Clone()
	db.Add("blocked", relation.Tuple{"time"})
	g, err := ParseGoal("deliver(time)")
	if err != nil {
		t.Fatal(err)
	}
	// Same database, same goal, no prefix: SHORT delivers a blocked product
	// happily (it has no blocked rule), RESTRICTED never can.
	for run := 0; run < 2; run++ { // second pass answers from the cache
		short, err := ReachGoal(models.Short(), db, g, &Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		restricted, err := ReachGoal(models.Restricted(), db, g, &Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !short.Reachable {
			t.Fatalf("run %d: SHORT cannot deliver", run)
		}
		if restricted.Reachable {
			t.Fatalf("run %d: RESTRICTED delivers a blocked product", run)
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Fatal("second pass never hit the shared cache")
	}
}

// TestCheckTemporalFromPrefix pins the live-monitoring reading of Theorem
// 3.3: a property violable from the empty session can become permanently
// safe once the prefix forecloses the violating continuations.
func TestCheckTemporalFromPrefix(t *testing.T) {
	m := models.Short()
	db := models.MagazineDB()
	never, err := ParseCondition("deliver(time) =>") // "time is never delivered"
	if err != nil {
		t.Fatal(err)
	}

	res, err := CheckTemporalFrom(m, db, nil, []*Condition{never}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("fresh session: delivering time should still be possible")
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("violation without a counterexample continuation")
	}

	// Once time is paid for, SHORT can never deliver it (delivery requires
	// ¬past-pay), so the property now holds of every continuation.
	paid := relation.Sequence{
		models.Step(models.F("order", "time")),
		models.Step(models.F("pay", "time", "855")),
	}
	res, err = CheckTemporalFrom(m, db, paid, []*Condition{never}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("after payment the delivery is foreclosed; got violation %v", res.Counterexample)
	}
}
