package live

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"weak"

	"repro/internal/models"
	"repro/internal/relation"
)

// cumulate folds an input sequence into the cumulated past-input instance —
// what a session's state is, per the Spocus definition.
func cumulate(seq relation.Sequence) relation.Instance {
	out := relation.NewInstance()
	for _, in := range seq {
		out.UnionWith(in)
	}
	return out
}

func TestGoalFromPrefixAndAnswerCache(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := models.MagazineDB()
	fig1 := models.Fig1Inputs()

	// After step 1 of Figure 1 (time and newsweek ordered), delivery is
	// still reachable.
	src := Source{Model: "short", DB: db, Past: cumulate(fig1[:1])}
	a, err := s.Goal(context.Background(), src, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Reachable || a.Cached {
		t.Fatalf("first query: got reachable=%v cached=%v, want true,false", a.Reachable, a.Cached)
	}

	// The same cumulated state reached by a different session (different
	// input split, different step count) must hit the shared answer cache.
	other := relation.Sequence{
		models.Step(models.F("order", "newsweek")),
		models.Step(models.F("order", "time")),
	}
	src2 := Source{Model: "short", DB: db, Past: cumulate(other)}
	a2, err := s.Goal(context.Background(), src2, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Reachable || !a2.Cached {
		t.Fatalf("second query: got reachable=%v cached=%v, want true,true", a2.Reachable, a2.Cached)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Queries != 2 {
		t.Fatalf("stats: %+v, want 1 hit of 2 queries", st)
	}

	// After the full Figure 1 run every priced product is paid for, so no
	// continuation can deliver anything again.
	src3 := Source{Model: "short", DB: db, Past: cumulate(fig1)}
	a3, err := s.Goal(context.Background(), src3, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if a3.Reachable {
		t.Fatalf("deliver(X) should be unreachable after the full Figure 1 run; witness %v", a3.Witness)
	}
}

// TestAnswerKeyInjective: two different pasts get two computations and two
// answers. Rendered with unescaped separators, order("x\x01y") and
// {order("x"), order("y")} were one key, so the second session was served
// the first one's answer and witness.
func TestAnswerKeyInjective(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := relation.NewInstance()
	for i, item := range []string{"x\x01y", "x", "y"} {
		db.Add("price", relation.Tuple{relation.Const(item), relation.Const(fmt.Sprint(i + 1))})
	}
	joined := Source{Model: "short", DB: db, Past: cumulate(relation.Sequence{models.Step(models.F("order", "x\x01y"))})}
	split := Source{Model: "short", DB: db, Past: cumulate(relation.Sequence{models.Step(models.F("order", "x"), models.F("order", "y"))})}
	var witnesses []string
	for _, src := range []Source{joined, split} {
		a, err := s.Goal(context.Background(), src, "deliver(X)")
		if err != nil {
			t.Fatal(err)
		}
		if !a.Reachable || a.Cached {
			t.Fatalf("past %s: reachable=%v cached=%v, want true,false", src.Past, a.Reachable, a.Cached)
		}
		witnesses = append(witnesses, a.Witness.String())
	}
	if witnesses[0] == witnesses[1] {
		t.Fatalf("both pasts answered with witness %s", witnesses[0])
	}
	if st := s.Stats(); st.CacheHits != 0 || st.Queries != 2 {
		t.Fatalf("stats: %+v, want 2 computed queries", st)
	}
}

// TestParsedGoalsAreSharedAndBounded: a goal's text is parsed once and the
// parse shared by later queries naming it; texts that normalize alike key
// one answer; and the parsed goals stay within maxParsedGoals however many
// texts are asked.
func TestParsedGoalsAreSharedAndBounded(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	src := Source{Model: "short", DB: models.MagazineDB()}
	a, err := s.parseGoal("deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := s.parseGoal("deliver(X)"); b.g != a.g {
		t.Fatal("a goal named twice was parsed twice")
	}
	if _, err := s.Goal(context.Background(), src, "deliver(X)"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Goal(context.Background(), src, "deliver( X )")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Goal != "deliver(X)" {
		t.Fatalf("goals that normalize alike do not share an answer: %+v", got)
	}
	if _, err := s.Goal(context.Background(), src, "deliver(X"); err == nil {
		t.Fatal("an unparsable goal was answered")
	}
	for i := 0; i < maxParsedGoals+10; i++ {
		if _, err := s.parseGoal(fmt.Sprintf("deliver(X), X != c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.goals); n > maxParsedGoals {
		t.Fatalf("%d parsed goals kept, over the bound of %d", n, maxParsedGoals)
	}
}

func TestTemporalFromPrefix(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := models.MagazineDB()

	// "deliveries only to previously ordered products" holds of SHORT from
	// any state, including mid-run.
	src := Source{Model: "short", DB: db, Past: cumulate(models.Fig1Inputs()[:2])}
	a, err := s.Temporal(context.Background(), src, []string{"deliver(X) => past-order(X)"})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Holds {
		t.Fatalf("condition should hold; counterexample %v violating %s", a.Counterexample, a.Violated)
	}

	// "never deliver time" is still violable from a state where time is
	// ordered but unpaid...
	src = Source{Model: "short", DB: db, Past: cumulate(models.Fig1Inputs()[:1])}
	a, err = s.Temporal(context.Background(), src, []string{"deliver(time) =>"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Holds {
		t.Fatal("deliver(time) should be reachable from the step-1 state")
	}
	// ...but unviolable once time has been paid for: past-pay(time, 855)
	// blocks the only delivery rule forever.
	src = Source{Model: "short", DB: db, Past: cumulate(models.Fig1Inputs())}
	a2, err := s.Temporal(context.Background(), src, []string{"deliver(time) =>"})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Holds {
		t.Fatalf("deliver(time) should be unreachable after full payment; counterexample %v", a2.Counterexample)
	}
}

// d1Set runs a progress query and returns the distance-1 inputs, sorted.
func d1Set(t *testing.T, s *Service, model string, db relation.Instance, past relation.Instance, goal string) []string {
	t.Helper()
	a, err := s.Progress(context.Background(), Source{Model: model, DB: db, Past: past}, goal)
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncated {
		t.Fatalf("progress truncated at budget; raise verify.DefaultSuggestBudget for this test")
	}
	var out []string
	for _, sg := range a.Suggestions {
		if sg.Distance == 1 {
			out = append(out, sg.Input)
		}
	}
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProgressGoldenFig1 replays the Figure 1 run of SHORT prefix by prefix
// and checks the progress service's immediate (distance-1) suggestions at
// each point: exactly the payments that would trigger a delivery right now.
func TestProgressGoldenFig1(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := models.MagazineDB()
	fig1 := models.Fig1Inputs()
	want := [][]string{
		0: {}, // nothing ordered: no single input delivers
		1: {"pay(newsweek, 845)", "pay(time, 855)"},
		2: {"pay(le-monde, 8350)", "pay(newsweek, 845)"},
		3: {}, // everything paid: delivery unreachable
	}
	for k := 0; k <= len(fig1); k++ {
		got := d1Set(t, s, "short", db, cumulate(fig1[:k]), "deliver(X)")
		if !eq(got, want[k]) {
			t.Errorf("prefix %d: distance-1 suggestions %v, want %v", k, got, want[k])
		}
	}
}

// TestProgressGoldenFig2 does the same for the Figure 2 run of FRIENDLY,
// whose trace includes an unavailable product, a misdirected payment, a
// double payment, and a pending-bills reminder.
func TestProgressGoldenFig2(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := models.MagazineDB()
	fig2 := models.Fig2Inputs()
	want := [][]string{
		0: {},
		1: {"pay(time, 855)"}, // la-stampa has no price: only time is billable
		2: {},                 // time paid, le-monde payment rejected (never ordered)
		3: {"pay(newsweek, 845)"},
		4: {"pay(newsweek, 845)"}, // pending-bills changes no state
		5: {},                     // newsweek paid too
	}
	for k := 0; k <= len(fig2); k++ {
		got := d1Set(t, s, "friendly", db, cumulate(fig2[:k]), "deliver(X)")
		if !eq(got, want[k]) {
			t.Errorf("prefix %d: distance-1 suggestions %v, want %v", k, got, want[k])
		}
	}
}

// TestProgressFollowUps checks the two-step shape of Figure 1: from the
// empty session, ordering a product is suggested with its exact payment as
// the follow-up.
func TestProgressFollowUps(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	a, err := s.Progress(context.Background(), Source{Model: "short", DB: models.MagazineDB()}, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	follow := map[string]string{}
	for _, sg := range a.Suggestions {
		if sg.Distance == 2 {
			follow[sg.Input] = sg.Follow
		}
	}
	want := map[string]string{
		"order(le-monde)": "pay(le-monde, 8350)",
		"order(newsweek)": "pay(newsweek, 845)",
		"order(time)":     "pay(time, 855)",
	}
	for in, f := range want {
		if follow[in] != f {
			t.Errorf("suggestion %s: follow-up %q, want %q", in, follow[in], f)
		}
	}
}

// TestAdmissionControl drives getOrCompute directly with a blocking
// computation so saturation is deterministic: with one worker and no queue,
// a second distinct query is rejected with OverloadedError while an
// identical one coalesces onto the in-flight computation.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, Queue: -1, Timeout: time.Minute})
	keyA := answerKey{fp: "f", kind: "goal", query: "a"}
	keyB := answerKey{fp: "f", kind: "goal", query: "b"}

	block := make(chan struct{})
	started := make(chan struct{})
	type res struct {
		v      any
		cached bool
		err    error
	}
	first := make(chan res, 1)
	go func() {
		v, cached, err := s.getOrCompute(context.Background(), keyA, 0, func(context.Context) (any, error) {
			close(started)
			<-block
			return "answer", nil
		})
		first <- res{v, cached, err}
	}()
	<-started

	// Distinct query at saturation: immediate 429.
	_, _, err := s.getOrCompute(context.Background(), keyB, 0, func(context.Context) (any, error) {
		t.Error("rejected query must not compute")
		return nil, nil
	})
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Stats().Rejected)
	}

	// Identical query: joins the in-flight computation instead of being
	// rejected or recomputing.
	second := make(chan res, 1)
	go func() {
		v, cached, err := s.getOrCompute(context.Background(), keyA, 0, func(context.Context) (any, error) {
			t.Error("coalesced query must not recompute")
			return nil, nil
		})
		second <- res{v, cached, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter attach
	close(block)

	r1, r2 := <-first, <-second
	if r1.err != nil || r1.v != "answer" || r1.cached {
		t.Fatalf("owner: %+v", r1)
	}
	if r2.err != nil || r2.v != "answer" || r2.cached {
		t.Fatalf("waiter: %+v", r2)
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced_total = %d, want 1", st.Coalesced)
	}

	// Now that the entry is complete, the same key is a true cache hit.
	v0, cached, err := s.getOrCompute(context.Background(), keyA, 0, func(context.Context) (any, error) {
		t.Error("cached query must not recompute")
		return nil, nil
	})
	if err != nil || v0 != "answer" || !cached {
		t.Fatalf("completed-entry hit: %v %v %v", v0, cached, err)
	}

	// The pool has drained: the previously rejected query now runs.
	v, _, err := s.getOrCompute(context.Background(), keyB, 0, func(context.Context) (any, error) { return "b", nil })
	if err != nil || v != "b" {
		t.Fatalf("after drain: %v, %v", v, err)
	}
}

// TestQueryTimeout checks the per-query deadline: an expired computation
// surfaces context.DeadlineExceeded, counts as a timeout, and is not
// cached (the next asker recomputes).
func TestQueryTimeout(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	key := answerKey{fp: "f", kind: "goal", query: "slow"}
	_, _, err := s.getOrCompute(context.Background(), key, 0, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Timeouts != 1 || st.AnswerEntries != 0 {
		t.Fatalf("stats after timeout: %+v", st)
	}
	v, cached, err := s.getOrCompute(context.Background(), key, 0, func(context.Context) (any, error) { return "ok", nil })
	if err != nil || cached || v != "ok" {
		t.Fatalf("retry after timeout: %v %v %v", v, cached, err)
	}
}

// TestAnswerEviction checks the cache cap: completed entries are evicted
// once MaxEntries is exceeded.
func TestAnswerEviction(t *testing.T) {
	s := New(Config{Workers: 1, MaxEntries: 8, Timeout: time.Minute})
	for i := 0; i < 50; i++ {
		key := answerKey{fp: "f", kind: "goal", query: fmt.Sprint(i)}
		if _, _, err := s.getOrCompute(context.Background(), key, 0, func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Stats().AnswerEntries; n > 9 {
		t.Fatalf("answer cache grew to %d entries, cap 8", n)
	}
	if s.Stats().Evicted == 0 {
		t.Fatal("expected evictions past the cap")
	}
}

// TestDepthAwareEvictionBeatsRandom compares the two eviction policies on
// the workload the cache exists for: a fleet of sessions marching forward
// through prefixes, with clients re-polling each state before stepping on.
// It drives getOrCompute directly with synthetic keys and free computes —
// real solver queries would make the comparison take minutes. Depth-aware
// eviction keeps the frontier resident (every re-poll hits: past prefixes
// are stale by construction, so they are evicted first); random replacement
// evicts frontier entries too and must lose hits.
func TestDepthAwareEvictionBeatsRandom(t *testing.T) {
	const (
		sessions = 16
		depths   = 20
	)
	run := func(random bool) (hits, queries int, st Stats) {
		s := New(Config{Workers: 1, MaxEntries: sessions, Timeout: time.Minute, evictRandom: random})
		ask := func(sess, depth int) {
			key := answerKey{fp: "machine", db: relation.Digest{1}, kind: "goal", query: "q",
				past: relation.Digest{uint64(sess), uint64(depth)}}
			_, cached, err := s.getOrCompute(context.Background(), key, depth,
				func(context.Context) (any, error) { return depth, nil })
			if err != nil {
				t.Fatal(err)
			}
			queries++
			if cached {
				hits++
			}
		}
		for d := 0; d < depths; d++ {
			for i := 0; i < sessions; i++ { // every session steps to depth d and asks
				ask(i, d)
			}
			for i := 0; i < sessions; i++ { // clients re-poll before stepping on
				ask(i, d)
			}
		}
		return hits, queries, s.Stats()
	}
	depthHits, n, st := run(false)
	randHits, _, _ := run(true)
	t.Logf("same cap (%d): depth-aware %d/%d hits, random %d/%d hits", sessions, depthHits, n, randHits, n)
	// Depth-aware is deterministic here: a frontier insert always finds a
	// strictly staler past-depth victim, so every re-poll hits.
	if want := sessions * depths; depthHits != want {
		t.Errorf("depth-aware eviction: %d/%d hits, want %d (frontier must stay resident)", depthHits, n, want)
	}
	if randHits >= depthHits {
		t.Errorf("random eviction got %d hits, depth-aware %d; expected strictly fewer", randHits, depthHits)
	}
	if st.Evicted == 0 {
		t.Error("depth-aware run recorded no evictions; cap never bound")
	}
}

func TestBadSources(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	var bad *BadQueryError
	if _, err := s.Goal(ctx, Source{Model: "no-such-model"}, "deliver(X)"); !errors.As(err, &bad) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := s.Goal(ctx, Source{}, "deliver(X)"); !errors.As(err, &bad) {
		t.Fatalf("empty source: %v", err)
	}
	if _, err := s.Goal(ctx, Source{Model: "short", Src: "x"}, "deliver(X)"); !errors.As(err, &bad) {
		t.Fatalf("ambiguous source: %v", err)
	}
	if _, err := s.Goal(ctx, Source{Model: "short"}, "deliver("); !errors.As(err, &bad) {
		t.Fatalf("bad goal: %v", err)
	}
	if _, err := s.Temporal(ctx, Source{Model: "short"}, nil); !errors.As(err, &bad) {
		t.Fatalf("no conditions: %v", err)
	}
}

// TestSrcSource checks inline-source resolution and that two textually
// identical sources share one machine entry (and so one cache scope).
func TestSrcSource(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	db := models.MagazineDB()
	a, err := s.Goal(context.Background(), Source{Src: models.ShortSrc, DB: db}, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Reachable {
		t.Fatal("deliver(X) should be reachable from scratch")
	}
	a2, err := s.Goal(context.Background(), Source{Src: models.ShortSrc, DB: db}, "deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Cached {
		t.Fatal("identical inline source must share the answer cache")
	}
}

// TestColdGoalSplit checks that a goal the solver answers records its cost
// split — grounding, SAT search, witness replay — in the service's
// histograms, and that a cache hit adds nothing to them.
func TestColdGoalSplit(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	src := Source{Model: "short", DB: models.MagazineDB(), Past: cumulate(models.Fig1Inputs()[:1])}
	if a, err := s.Goal(context.Background(), src, "deliver(X)"); err != nil || !a.Reachable || a.Cached {
		t.Fatalf("cold goal: %+v, %v", a, err)
	}
	st := s.Stats()
	for name, q := range map[string]Quantiles{"ground": st.ColdGround, "sat": st.ColdSAT, "replay": st.ColdReplay} {
		if q.P50 <= 0 || q.Max <= 0 {
			t.Errorf("cold_%s_us not populated by a cold goal: %+v", name, q)
		}
	}
	if a, err := s.Goal(context.Background(), src, "deliver(X)"); err != nil || !a.Cached {
		t.Fatalf("repeat goal: %+v, %v", a, err)
	}
	if again := s.Stats(); again.ColdGround != st.ColdGround || again.ColdSAT != st.ColdSAT || again.ColdReplay != st.ColdReplay {
		t.Errorf("a cache hit moved the cold split: %+v → %+v", st, again)
	}
}

// BenchmarkGoalHit times a goal answered from the cache, the live plane's
// common case, at pasts of growing size (the database grows with them). A
// hit hashes the database and the past for its key, and sorts and renders
// neither.
func BenchmarkGoalHit(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("past=%d", n), func(b *testing.B) {
			db, past := relation.NewInstance(), relation.NewInstance()
			for i := 0; i < n/2; i++ {
				item, price := relation.Const(fmt.Sprintf("item-%04d", i)), relation.Const(fmt.Sprint(100+i))
				db.Add("price", relation.Tuple{item, price})
				past.Add("order", relation.Tuple{item})
				past.Add("pay", relation.Tuple{item, price})
			}
			s := New(Config{Timeout: time.Minute})
			src := Source{Model: "short", DB: db, Past: past}
			if _, err := s.Goal(context.Background(), src, "deliver(X)"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := s.Goal(context.Background(), src, "deliver(X)")
				if err != nil || !a.Cached {
					b.Fatalf("not a hit: %v", err)
				}
			}
		})
	}
}

// TestLiveTablesBounded runs 4 × MaxEntries cold Goal queries over distinct
// one-order pasts of one model. The answer cache stays at its cap, the
// service's other tables hold one entry each (one machine, one eviction
// group, one parsed goal), and the live heap after the last query is what
// it was after the first MaxEntries: no table kept an entry per query. A
// cold Goal counts one solve and a hit counts none.
func TestLiveTablesBounded(t *testing.T) {
	const maxEntries = 128
	s := New(Config{Timeout: time.Minute, MaxEntries: maxEntries})
	db := models.MagazineDB()
	ask := func(i int) *GoalAnswer {
		t.Helper()
		past := models.Step(models.F("order", fmt.Sprintf("item-%04d", i)))
		a, err := s.Goal(context.Background(), Source{Model: "short", DB: db, Past: past}, "deliver(X)")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	before := s.Stats().SolverMisses
	if a := ask(0); a.Cached {
		t.Fatal("first query answered from the cache")
	}
	if got := s.Stats().SolverMisses - before; got != 1 {
		t.Errorf("a cold goal counted %d solves, want 1", got)
	}
	if a := ask(0); !a.Cached {
		t.Fatal("repeated query not answered from the cache")
	}
	if got := s.Stats().SolverMisses - before; got != 1 {
		t.Errorf("a hit counted %d solves, want 0", got-1)
	}

	for i := 1; i < maxEntries; i++ {
		ask(i)
	}
	warm := heap()
	for i := maxEntries; i < 4*maxEntries; i++ {
		ask(i)
	}
	grown := int64(heap()) - int64(warm)

	st := s.Stats()
	if st.AnswerEntries > maxEntries {
		t.Errorf("answer cache holds %d entries, cap %d", st.AnswerEntries, maxEntries)
	}
	if st.SolverMisses-before != 4*maxEntries {
		t.Errorf("%d solves for %d cold goals", st.SolverMisses-before, 4*maxEntries)
	}
	s.mu.Lock()
	machines, groups := len(s.machines), len(s.maxDepth)
	s.mu.Unlock()
	s.goalMu.Lock()
	goals := len(s.goals)
	s.goalMu.Unlock()
	if machines != 1 || groups != 1 || goals != 1 {
		t.Errorf("tables after %d queries: %d machines, %d groups, %d goals; want 1 each", 4*maxEntries, machines, groups, goals)
	}
	// 3 × maxEntries further queries; a table keeping ~2 KB a query grows
	// the heap by ~800 KB.
	t.Logf("live heap grew %d B over %d queries past the cap", grown, 3*maxEntries)
	if grown > 256<<10 {
		t.Errorf("live heap grew %d B over %d queries past the answer cache's cap", grown, 3*maxEntries)
	}
	runtime.KeepAlive(s)
}

// TestDroppedServiceLeavesAggregate: the spocus_live aggregate holds its
// services weakly, so a service nothing else holds is collected and leaves
// it.
func TestDroppedServiceLeavesAggregate(t *testing.T) {
	listed := func() int {
		var agg []Stats
		if err := json.Unmarshal([]byte(expvar.Get("spocus_live").String()), &agg); err != nil {
			t.Fatal(err)
		}
		return len(agg)
	}
	s := New(Config{})
	n := listed()
	if _, err := s.Goal(context.Background(), Source{Model: "short", DB: models.MagazineDB()}, "deliver(X)"); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(services.Live(), s) {
		t.Fatal("a new service is not in the aggregate")
	}
	w := weak.Make(s)
	s = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the dropped service is still reachable")
	}
	if after := listed(); after >= n {
		t.Errorf("the aggregate lists %d services after the drop, %d before it", after, n)
	}
}
