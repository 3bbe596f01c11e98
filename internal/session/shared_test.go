package session

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/models"
	"repro/internal/relation"
)

// served returns the session the engine serves under id.
func served(t testing.TB, e *Engine, id string) *Session {
	t.Helper()
	v, err := e.onSession(id, func(_ *shard, s *Session) (any, error) { return s, nil })
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Session)
}

// idleSessionBytes is the ceiling on the heap an opened, never-stepped
// registry session keeps: its state, its empty log, its database store
// and the engine's entry for it. A session that parsed its own machine,
// cloned its own database and owned its step scratch kept 8,396 bytes.
const idleSessionBytes = 1536

// TestIdleSessionRetention opens 2,000 sessions over the ten registry
// models — half on the model's demo database, half on an equal database
// of the caller's own — and holds the heap they keep, once collected, to
// idleSessionBytes each.
func TestIdleSessionRetention(t *testing.T) {
	const n = 2000
	names := models.Names()
	e := memEngine(t, 2)
	for _, name := range names {
		if _, err := e.Open(&OpenRequest{ID: "warm-" + name, Model: name}); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		req := &OpenRequest{ID: fmt.Sprintf("idle-%05d", i), Model: name}
		if i%2 == 1 {
			req.DB = models.DefaultDB(name)
		}
		if _, err := e.Open(req); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(heap()-before) / n
	runtime.KeepAlive(e)
	t.Logf("%.0f bytes kept per idle session (ceiling %d)", per, idleSessionBytes)
	if per > idleSessionBytes {
		t.Fatalf("an idle session keeps %.0f bytes, over the ceiling of %d", per, idleSessionBytes)
	}
}

// TestSessionsShareMachineAndDB: sessions of one registry model run one
// machine; sessions on equal databases read one instance, and a database
// with one more fact is another; what the caller does to its instance after
// Open reaches no session; and sessions restored from a snapshot or
// installed from a ship image share with the live ones.
func TestSessionsShareMachineAndDB(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	mine, theirs, more := models.MagazineDB(), models.MagazineDB(), models.MagazineDB()
	more.Add("available", relation.Tuple{"economist"})
	want, wantMore := mine.Digest(), more.Digest()
	for id, db := range map[string]relation.Instance{"a": mine, "b": theirs, "c": more} {
		if _, err := e.Open(&OpenRequest{ID: id, Model: "short", DB: db}); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := machineOf(served(t, e, "a")), machineOf(served(t, e, "b")), machineOf(served(t, e, "c"))
	if a.mach != b.mach || a.mach != c.mach {
		t.Fatal("sessions of one registry model run different machines")
	}
	if a.db != b.db {
		t.Fatal("sessions on equal databases read different instances")
	}
	if a.db == c.db {
		t.Fatal("a database with one more fact is shared with a smaller one")
	}

	mine.Add("price", relation.Tuple{"wired", "999"})
	theirs.Add("available", relation.Tuple{"wired"})
	more.Add("price", relation.Tuple{"economist", "120"})
	for id, d := range map[string]relation.Digest{"a": want, "b": want, "c": wantMore} {
		v, err := e.Peek(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.DB.Digest() != d {
			t.Fatalf("session %s: a change to the caller's database after Open reached the session", id)
		}
	}

	stepInput(t, e, "a", "order", "time")
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	r := recovered(t, dir, 1)
	if ra := machineOf(served(t, r, "a")); ra.mach != a.mach || ra.db != a.db {
		t.Fatal("a session restored from a snapshot shares neither machine nor database")
	}
	data, err := e.ExportState("a")
	if err != nil {
		t.Fatal(err)
	}
	peer := memEngine(t, 1)
	if _, err := peer.Install(data); err != nil {
		t.Fatal(err)
	}
	if ia := machineOf(served(t, peer, "a")); ia.mach != a.mach || ia.db != a.db {
		t.Fatal("an installed session shares neither machine nor database")
	}
}

// dbTableHolds reports which of the digests have an entry in the database
// table.
func dbTableHolds(ds []relation.Digest) int {
	dbTable.mu.Lock()
	defer dbTable.mu.Unlock()
	n := 0
	for _, d := range ds {
		if _, ok := dbTable.m[d]; ok {
			n++
		}
	}
	return n
}

// TestDBTableDrains: the database table holds its entries weakly, so once
// the sessions on 100 distinct databases are closed and collected, none of
// the 100 is left in it.
func TestDBTableDrains(t *testing.T) {
	const n = 100
	e := memEngine(t, 2)
	var ds []relation.Digest
	for i := 0; i < n; i++ {
		db := models.MagazineDB()
		db.Add("available", relation.Tuple{relation.Const(fmt.Sprintf("drain-%03d", i))})
		ds = append(ds, db.Digest())
		if _, err := e.Open(&OpenRequest{ID: fmt.Sprintf("drain-%03d", i), Model: "short", DB: db}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dbTableHolds(ds); got != n {
		t.Fatalf("the table holds %d of %d open databases", got, n)
	}
	for i := 0; i < n; i++ {
		if _, err := e.Close(fmt.Sprintf("drain-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := dbTableHolds(ds)
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d closed sessions' databases are still in the table", left, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSharedRunsUnderConcurrentReads steps 32 sessions of one model on
// each of two shards while readers Peek them and ask the live plane a goal.
// Run under -race it is the check that nothing a session shares — machine,
// plans, step scratch, database — is written by a step or a read. Every
// log must equal Machine.Execute over the session's acked inputs, and the
// shared database must keep its digest through steps, goals, a snapshot
// and an export.
func TestSharedRunsUnderConcurrentReads(t *testing.T) {
	const perShard, steps = 32, 12
	e, err := NewEngine(Config{Dir: t.TempDir(), Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	db := models.MagazineDB()
	want := db.Digest()
	var ids [2][]string
	for i := 0; len(ids[0]) < perShard || len(ids[1]) < perShard; i++ {
		id := fmt.Sprintf("conc-%03d", i)
		if sh := ShardOf(id, 2); len(ids[sh]) < perShard {
			ids[sh] = append(ids[sh], id)
		}
	}
	all := append(append([]string(nil), ids[0]...), ids[1]...)
	for _, id := range all {
		if _, err := e.Open(&OpenRequest{ID: id, Model: "short", DB: db}); err != nil {
			t.Fatal(err)
		}
	}
	shared := machineOf(served(t, e, all[0])).db
	script := []relation.Instance{
		step(t, fact("order", "time")), step(t, fact("pay", "time", "855")),
		step(t, fact("order", "newsweek")), step(t, fact("pay", "newsweek", "845")),
	}
	lv := live.New(live.Config{Workers: 2})
	var steppers, readers sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 8)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, err := e.Peek(all[i%len(all)])
				if err != nil {
					fail <- err
					return
				}
				src := live.Source{Model: v.Model, DB: v.DB, Past: v.Past}
				if _, err := lv.Goal(context.Background(), src, "deliver(X)"); err != nil {
					if _, ok := err.(*live.OverloadedError); !ok {
						fail <- err
						return
					}
				}
			}
		}(r)
	}
	for sh := range ids {
		for half := 0; half < 2; half++ {
			steppers.Add(1)
			go func(mine []string) {
				defer steppers.Done()
				for j := 0; j < steps; j++ {
					for _, id := range mine {
						if _, err := e.Input(id, script[j%len(script)]); err != nil {
							fail <- err
							return
						}
					}
				}
			}(ids[sh][half*perShard/2 : (half+1)*perShard/2])
		}
	}
	steppers.Wait()
	close(stop)
	readers.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExportState(all[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Unfreeze(all[0]); err != nil {
		t.Fatal(err)
	}
	if got := shared.inst.Digest(); got != want {
		t.Fatal("the shared database changed under steps, goals, a snapshot and an export")
	}
	var inputs relation.Sequence
	for j := 0; j < steps; j++ {
		inputs = append(inputs, script[j%len(script)])
	}
	ref, err := models.Short().Execute(models.MagazineDB(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range all {
		if machineOf(served(t, e, id)).db != shared {
			t.Fatalf("session %s does not read the shared database", id)
		}
		lr, err := e.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Log.Equal(ref.Logs) {
			t.Fatalf("session %s: log differs from Machine.Execute over its acked inputs", id)
		}
	}
}
