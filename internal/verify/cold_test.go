package verify

import (
	"fmt"
	"testing"

	"repro/internal/models"
	"repro/internal/relation"
)

// coldDB is a twelve-item catalogue in the magazine schema (price,
// available) — the size of the live verify workload's catalogue.
func coldDB() relation.Instance {
	db := relation.NewInstance()
	for i := 0; i < 12; i++ {
		item := relation.Const(fmt.Sprintf("item-%02d", i))
		db.Add("price", relation.Tuple{item, relation.Const(fmt.Sprint(800 + 7*i))})
		db.Add("available", relation.Tuple{item})
	}
	return db
}

// coldPrefix is a session's cumulated past as the live plane hands it to
// the verifier: one instance holding three orders and two payments.
func coldPrefix() relation.Sequence {
	past := relation.NewInstance()
	for _, i := range []int{3, 7, 10} {
		past.Add("order", relation.Tuple{relation.Const(fmt.Sprintf("item-%02d", i))})
	}
	for _, i := range []int{3, 7} {
		past.Add("pay", relation.Tuple{relation.Const(fmt.Sprintf("item-%02d", i)), relation.Const(fmt.Sprint(800 + 7*i))})
	}
	return relation.Sequence{past}
}

// BenchmarkReachGoalFrom is one live-verify cache miss: goal reachability
// of deliver(X) from a session prefix, grounded, solved and replayed from
// scratch on every iteration.
func BenchmarkReachGoalFrom(b *testing.B) {
	g, err := ParseGoal("deliver(X)")
	if err != nil {
		b.Fatal(err)
	}
	db, prefix := coldDB(), coldPrefix()
	for _, name := range []string{"short", "friendly", "guarded"} {
		m := models.Get(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ReachGoalFrom(m, db, prefix, g, nil)
				if err != nil || !res.Reachable {
					b.Fatalf("reachable=%v err=%v", res != nil && res.Reachable, err)
				}
			}
		})
	}
}

// TestColdReachAllocs pins the allocation cost of one cold ReachGoalFrom on
// SHORT (grounding, SAT search and witness replay). The linear-scan solver
// with map-deduped clause intake and string-keyed grounding allocated
// 38,999 times here (go1.24, linux/amd64); the heap-ordered solver over
// slab-carved clauses with index-keyed grounding allocated 1,288; grounding
// only the bindings the price guard admits allocates 1,050–1,170, about
// half of it in the witness replay and shrink.
func TestColdReachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, err := ParseGoal("deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	m, db, prefix := models.Get("short"), coldDB(), coldPrefix()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReachGoalFrom(m, db, prefix, g, nil); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1700
	t.Logf("%.0f allocations per cold ReachGoalFrom(short)", allocs)
	if allocs > ceiling {
		t.Errorf("cold ReachGoalFrom(short) allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
