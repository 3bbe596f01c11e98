package session

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
)

// memEngine returns an in-memory engine, shut down at test end.
func memEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Shutdown() })
	return e
}

// fig1Reference computes the Figure 1 run of SHORT with the offline
// executor; the serving engine must reproduce its outputs and logs exactly.
func fig1Reference(t *testing.T) ([]relation.Instance, relation.Sequence) {
	t.Helper()
	run, err := models.Short().Execute(models.MagazineDB(), models.Fig1Inputs())
	if err != nil {
		t.Fatal(err)
	}
	return run.Outputs, run.Logs
}

func TestSessionFig1(t *testing.T) {
	e := memEngine(t, 4)
	wantOut, wantLogs := fig1Reference(t)

	info, err := e.Open(&OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != 0 || info.Model != "short" {
		t.Fatalf("bad open info: %+v", info)
	}
	for i, in := range models.Fig1Inputs() {
		res, err := e.Input(info.ID, in)
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if res.Seq != i+1 {
			t.Errorf("step %d: seq %d", i+1, res.Seq)
		}
		if !res.Output.Equal(wantOut[i]) {
			t.Errorf("step %d output:\n got %s\nwant %s", i+1, res.Output, wantOut[i])
		}
		if !res.Log.Equal(wantLogs[i]) {
			t.Errorf("step %d log delta:\n got %s\nwant %s", i+1, res.Log, wantLogs[i])
		}
	}
	lr, err := e.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs) {
		t.Errorf("full log:\n got %s\nwant %s", lr.Log, wantLogs)
	}
	cr, err := e.Close(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Steps != 3 || !cr.Valid {
		t.Errorf("close: %+v", cr)
	}
	if _, err := e.Log(info.ID); !errors.As(err, new(*NotFoundError)) {
		t.Errorf("log after close: %v, want NotFoundError", err)
	}
}

func TestOpenValidation(t *testing.T) {
	e := memEngine(t, 2)
	cases := []*OpenRequest{
		{},                                  // neither model nor src
		{Model: "no-such-model"},            // unknown name
		{Model: "short", Src: "transducer"}, // both
		{Model: "short", Mode: "bogus"},     // bad mode
		{Src: "transducer broken\nschema\n  output: o/0;\noutput rules\n  o :- missing;\n"}, // bad inline program
	}
	for i, req := range cases {
		if _, err := e.Open(req); !errors.As(err, new(*BadInputError)) {
			t.Errorf("case %d: err = %v, want BadInputError", i, err)
		}
	}
	// Duplicate explicit ID conflicts.
	if _, err := e.Open(&OpenRequest{ID: "dup", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(&OpenRequest{ID: "dup", Model: "short"}); !errors.As(err, new(*ConflictError)) {
		t.Errorf("duplicate open: %v, want ConflictError", err)
	}
}

func TestInputValidation(t *testing.T) {
	e := memEngine(t, 1)
	info, err := e.Open(&OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Input(info.ID, step(t, fact("nonsense", "x")))
	if !errors.As(err, new(*BadInputError)) || err.Error() != "step 1: nonsense is not an input relation" {
		t.Errorf("unknown relation: %v, want BadInputError", err)
	}
	_, err = e.Input(info.ID, step(t, fact("order", "a", "b")))
	if !errors.As(err, new(*BadInputError)) || err.Error() != "step 1: input order has arity 2, schema says 1" {
		t.Errorf("wrong arity: %v, want BadInputError", err)
	}
	net, err := e.Open(&OpenRequest{Network: models.Network("marketplace")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.NetInput(net.ID, compose.StepInputs{"customer": step(t, fact("nope", "x"))})
	if !errors.As(err, new(*BadInputError)) || err.Error() != "step 1: nope is not an input relation of node customer" {
		t.Errorf("unknown node relation: %v, want BadInputError", err)
	}
	_, err = e.NetInput(net.ID, compose.StepInputs{"customer": step(t, fact("want", "a", "b"))})
	if !errors.As(err, new(*BadInputError)) || err.Error() != "step 1: node customer input want has arity 2, schema says 1" {
		t.Errorf("wrong node arity: %v, want BadInputError", err)
	}
	if _, err := e.Input("missing", step(t)); !errors.As(err, new(*NotFoundError)) {
		t.Errorf("missing session: %v, want NotFoundError", err)
	}
	// A rejected input must not have advanced the session.
	info2, _ := e.Info(info.ID)
	if info2.Steps != 0 {
		t.Errorf("rejected inputs advanced the session to step %d", info2.Steps)
	}
}

// TestInlineProgram opens a session from inline source rather than the
// registry.
func TestInlineProgram(t *testing.T) {
	e := memEngine(t, 2)
	info, err := e.Open(&OpenRequest{Src: models.ShortSrc, DB: models.MagazineDB()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Input(info.ID, step(t, fact("order", "time")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Has("sendbill", relation.Tuple{"time", "855"}) {
		t.Errorf("inline program output: %s", res.Output)
	}
}

// TestAcceptanceModes exercises the error-free discipline end to end: a
// guarded session flags an out-of-protocol payment.
func TestAcceptanceModes(t *testing.T) {
	e := memEngine(t, 2)
	info, err := e.Open(&OpenRequest{Model: "guarded", Mode: "error-free"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Input(info.ID, step(t, fact("order", "time")))
	if err != nil || !res.Valid {
		t.Fatalf("clean step: valid=%v err=%v", res.Valid, err)
	}
	// Paying for an un-ordered product is an error under GUARDED.
	res, err = e.Input(info.ID, step(t, fact("pay", "newsweek", "845")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("error step still reported valid")
	}
	cr, _ := e.Close(info.ID)
	if cr.Valid {
		t.Error("run with an error closed as valid")
	}
}

// TestConcurrentSessions drives many sessions from many goroutines and
// checks every one ends with exactly the per-session expected log. Run
// under -race this is also the data-race proof for the sharded engine.
func TestConcurrentSessions(t *testing.T) {
	e := memEngine(t, 4)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	_, wantLogs := fig1Reference(t)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("sess-%03d", i)
			if _, err := e.Open(&OpenRequest{ID: id, Model: "short"}); err != nil {
				errs <- err
				return
			}
			for _, in := range models.Fig1Inputs() {
				if _, err := e.Input(id, in); err != nil {
					errs <- err
					return
				}
			}
			lr, err := e.Log(id)
			if err != nil {
				errs <- err
				return
			}
			if !lr.Log.Equal(wantLogs) {
				errs <- fmt.Errorf("%s: wrong log", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.Stats()
	if st.StepsTotal != n*3 || st.SessionsOpen != n {
		t.Errorf("stats: %+v", st)
	}
	infos, err := e.List()
	if err != nil || len(infos) != n {
		t.Errorf("List: %d sessions, err=%v", len(infos), err)
	}
}

// TestRecovery is the in-process crash test: an engine with a durable dir
// is abandoned without Shutdown (its WAL is fsynced per policy), and a
// fresh engine over the same dir must serve identical logs and accept
// further steps. The dir is nested under directories that do not exist
// yet: opening the store creates them.
func TestRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	wantOut, wantLogs := fig1Reference(t)

	e1, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Open(&OpenRequest{ID: "crashy", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	inputs := models.Fig1Inputs()
	for _, in := range inputs[:2] {
		if _, err := e1.Input("crashy", in); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Shutdown, no snapshot — recovery must come from the WAL
	// alone. (The file handles leak until test exit; that is the point.)

	e2, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	lr, err := e2.Log("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs[:2]) {
		t.Fatalf("recovered log:\n got %s\nwant %s", lr.Log, wantLogs[:2])
	}
	st := e2.Stats()
	if st.ReplayRecords == 0 {
		t.Error("no WAL records replayed")
	}
	// The revived session continues exactly where the crashed one stopped.
	res, err := e2.Input("crashy", inputs[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 || !res.Output.Equal(wantOut[2]) {
		t.Errorf("step after recovery: seq=%d output=%s", res.Seq, res.Output)
	}
	lr, _ = e2.Log("crashy")
	if !lr.Log.Equal(wantLogs) {
		t.Errorf("final log differs from uncrashed run:\n got %s\nwant %s", lr.Log, wantLogs)
	}
}

// TestSnapshotCompaction forces snapshots (tiny SnapshotEvery) and checks
// recovery from snapshot + rotated WAL, including a closed session staying
// closed.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, wantLogs := fig1Reference(t)
	for _, id := range []string{"a", "b"} {
		if _, err := e1.Open(&OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
		for _, in := range models.Fig1Inputs() {
			if _, err := e1.Input(id, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e1.Close("b"); err != nil {
		t.Fatal(err)
	}
	if e1.Stats().Snapshots == 0 {
		t.Fatal("no snapshot was taken despite SnapshotEvery=2")
	}
	// Abandon without Shutdown; recover.
	e2, err := NewEngine(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	lr, err := e2.Log("a")
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs) {
		t.Errorf("snapshot-recovered log differs:\n got %s\nwant %s", lr.Log, wantLogs)
	}
	if _, err := e2.Log("b"); !errors.As(err, new(*NotFoundError)) {
		t.Errorf("closed session resurrected: %v", err)
	}
}

// TestShutdownThenReopen checks the clean path: Shutdown snapshots, and a
// new engine starts from the snapshot with an empty WAL.
func TestShutdownThenReopen(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Config{Dir: dir, Shards: 3, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Open(&OpenRequest{ID: "s", Model: "subscription"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Input("s", step(t, fact("subscribe", "economist"))); err != nil {
		t.Fatal(err)
	}
	if err := e1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Open(&OpenRequest{Model: "short"}); err == nil {
		t.Error("open after Shutdown should fail")
	}
	e2, err := NewEngine(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	info, err := e2.Info("s")
	if err != nil || info.Steps != 1 {
		t.Fatalf("recovered info: %+v err=%v", info, err)
	}
	if e2.Stats().ReplayRecords != 0 {
		t.Errorf("clean shutdown left %d WAL records", e2.Stats().ReplayRecords)
	}
}

func TestShardRouting(t *testing.T) {
	e := memEngine(t, 8)
	// All shards reachable: with enough random IDs each shard should own at
	// least one session. (256 IDs across 8 shards: the chance a shard stays
	// empty is negligible, and the test is deterministic given NewID.)
	for i := 0; i < 256; i++ {
		if _, err := e.Open(&OpenRequest{Model: "short"}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[int]int)
	for _, sh := range e.shards {
		v, _ := sh.run(true, func(sh *shard) (any, error) { return len(sh.sessions), nil })
		counts[sh.idx] = v.(int)
	}
	for idx, c := range counts {
		if c == 0 {
			t.Errorf("shard %d owns no sessions", idx)
		}
	}
}

// TestShutdownIsIdempotent shuts a memory engine and a durable one down
// twice: the second call finds nothing left to do and returns nil, and the
// engine keeps refusing requests.
func TestShutdownIsIdempotent(t *testing.T) {
	for name, cfg := range map[string]Config{
		"memory":  {Shards: 2},
		"durable": {Shards: 2, Dir: t.TempDir(), Fsync: FsyncAlways},
	} {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
				t.Fatal(err)
			}
			stepInput(t, e, "s", "order", "time")
			for i := 1; i <= 2; i++ {
				if err := e.Shutdown(); err != nil {
					t.Fatalf("shutdown %d: %v", i, err)
				}
			}
			if _, err := e.Input("s", relation.NewInstance()); err == nil || err.Error() != "engine is shut down" {
				t.Fatalf("input after shutdown: %v, want the shut-down error", err)
			}
		})
	}
}

// TestGroupCommitConcurrentCallers runs the group commit from many callers
// at once: 8 goroutines each make 50 keyed steps over 4 sessions on one
// FsyncAlways shard. Every call is acked, commits are shared (fewer fsyncs
// than appends), and an engine recovered from the WAL alone holds exactly
// the acked steps, each session's log the offline executor's over its
// inputs in acked order.
func TestGroupCommitConcurrentCallers(t *testing.T) {
	const goroutines, steps, sessions = 8, 50, 4
	t.Run("default", func(t *testing.T) {
		cfg := Config{Dir: t.TempDir(), Shards: 1, Fsync: FsyncAlways, SnapshotEvery: -1}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < sessions; j++ {
			if _, err := e.Open(&OpenRequest{ID: fmt.Sprintf("gc-%d", j), Model: "short"}); err != nil {
				t.Fatal(err)
			}
		}
		inputs := models.Fig1Inputs()
		var mu sync.Mutex
		acked := make(map[string]map[int]relation.Instance) // session → seq → input
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					id, in := fmt.Sprintf("gc-%d", (g+i)%sessions), inputs[(g+i)%len(inputs)]
					res, err := e.InputKey(id, fmt.Sprintf("g%d-%d", g, i), in)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d step %d: %w", g, i, err)
						return
					}
					mu.Lock()
					if acked[id] == nil {
						acked[id] = make(map[int]relation.Instance)
					}
					acked[id][res.Seq] = in
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := e.Stats()
		t.Logf("%d appends, %d fsyncs", st.WALAppends, st.WALSyncs)
		if want := int64(sessions + goroutines*steps); st.WALAppends != want {
			t.Fatalf("%d appends, want %d", st.WALAppends, want)
		}
		if st.WALSyncs >= st.WALAppends {
			t.Fatalf("%d fsyncs for %d appends: no commit was shared", st.WALSyncs, st.WALAppends)
		}

		// Recover from the WAL alone: e is abandoned, not shut down.
		e2, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Shutdown()
		total := 0
		for id, bySeq := range acked {
			seq := make(relation.Sequence, len(bySeq))
			for n, in := range bySeq {
				if n < 1 || n > len(seq) || seq[n-1] != nil {
					t.Fatalf("%s: acked seqs are not 1..%d", id, len(seq))
				}
				seq[n-1] = in
			}
			ref, err := models.Short().Execute(models.MagazineDB(), seq)
			if err != nil {
				t.Fatal(err)
			}
			lr, err := e2.Log(id)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Steps != len(seq) || !lr.Log.Equal(ref.Logs) {
				t.Fatalf("%s recovered %d steps, want the %d acked; logs equal: %v", id, lr.Steps, len(seq), lr.Log.Equal(ref.Logs))
			}
			total += len(seq)
		}
		if total != goroutines*steps {
			t.Fatalf("%d steps acked, want %d", total, goroutines*steps)
		}
	})
}
