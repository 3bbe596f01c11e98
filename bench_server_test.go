package spocus

// Serving-layer benchmarks, companions to the E1–E17 experiment benches:
// single-session step latency under each durability policy, and aggregate
// throughput across many concurrent sessions. Baselines are committed in
// BENCH_server.json.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/session"
)

// shopStep is the Figure 1 loop: order an item on even steps, pay for it on
// odd ones, cycling through the magazine catalogue.
func shopStep(i, j int) relation.Instance {
	products := []string{"time", "newsweek", "le-monde"}
	prices := []string{"855", "845", "8350"}
	p := (i + j/2) % len(products)
	in := relation.NewInstance()
	if j%2 == 0 {
		in.Add("order", relation.Tuple{relation.Const(products[p])})
	} else {
		in.Add("pay", relation.Tuple{relation.Const(products[p]), relation.Const(prices[p])})
	}
	return in
}

// BenchmarkSessionStep measures one session's step latency through the
// engine under each durability policy.
func BenchmarkSessionStep(b *testing.B) {
	cases := []struct {
		name    string
		durable bool
		policy  session.FsyncPolicy
	}{
		{"mem", false, session.FsyncNever},
		{"wal-never", true, session.FsyncNever},
		{"wal-always", true, session.FsyncAlways},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := session.Config{Shards: 1, Fsync: c.policy}
			if c.durable {
				cfg.Dir = b.TempDir()
			}
			e, err := session.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Shutdown()
			if _, err := e.Open(&session.OpenRequest{ID: "bench", Model: "short"}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Input("bench", shopStep(0, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepAtDepth measures one step through the engine on a session
// whose past-order already holds depth items of a depth-item catalogue. The
// timed steps re-order those items — each fires sendbill and is deduped by
// the cumulative append — so the depth stays put however long the timer
// runs: a step costs its input, and the three depths should time alike.
func BenchmarkStepAtDepth(b *testing.B) {
	for _, depth := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			db, all := relation.NewInstance(), relation.NewInstance()
			orders := make([]relation.Instance, depth)
			for i := range orders {
				item := relation.Const(fmt.Sprintf("item-%04d", i))
				db.Add("price", relation.Tuple{item, relation.Const(fmt.Sprint(100 + i))})
				all.Add("order", relation.Tuple{item})
				orders[i] = relation.NewInstance()
				orders[i].Add("order", relation.Tuple{item})
			}
			e, err := session.NewEngine(session.Config{Shards: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Shutdown()
			if _, err := e.Open(&session.OpenRequest{ID: "bench", Model: "short", DB: db}); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Input("bench", all); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Input("bench", orders[i%depth]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionThroughput measures aggregate steps/sec across many
// concurrent sessions (in-memory engine, default shards).
func BenchmarkSessionThroughput(b *testing.B) {
	const nSessions = 256
	e, err := session.NewEngine(session.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown()
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%03d", i)
		if _, err := e.Open(&session.OpenRequest{ID: ids[i], Model: "short"}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := next.Add(1)
			i := int(n) % nSessions
			if _, err := e.Input(ids[i], shopStep(i, int(n)/nSessions)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if e.Stats().StepsTotal < int64(b.N) {
		b.Fatalf("stats lost steps: %d < %d", e.Stats().StepsTotal, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkSessionRecovery measures startup replay: time to rebuild an
// engine from a WAL holding many sessions' worth of steps (the crash-
// recovery path, with no snapshot to shortcut it).
func BenchmarkSessionRecovery(b *testing.B) {
	dir := b.TempDir()
	e, err := session.NewEngine(session.Config{Dir: dir, Shards: 1, Fsync: session.FsyncNever, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	const nSessions, nSteps = 32, 16
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("r-%03d", i)
		if _, err := e.Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < nSteps; j++ {
			if _, err := e.Input(id, shopStep(i, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Capture the pure-WAL fixture (the whole shard directory: manifest +
	// segments) before Shutdown compacts it into a snapshot, then restore
	// it for every iteration: each NewEngine below replays the full
	// (nSessions × nSteps)-record WAL, as after kill -9.
	shardDir := filepath.Join(dir, "shard-000")
	fixture := map[string][]byte{}
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		b.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(shardDir, ent.Name()))
		if err != nil {
			b.Fatal(err)
		}
		fixture[ent.Name()] = data
	}
	if err := e.Shutdown(); err != nil {
		b.Fatal(err)
	}
	restore := func() {
		if err := os.RemoveAll(shardDir); err != nil {
			b.Fatal(err)
		}
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			b.Fatal(err)
		}
		for name, data := range fixture {
			if err := os.WriteFile(filepath.Join(shardDir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore()
		b.StartTimer()
		e2, err := session.NewEngine(session.Config{Dir: dir, Shards: 1, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if open := e2.Stats().SessionsOpen; open != nSessions {
			b.Fatalf("recovered %d sessions, want %d", open, nSessions)
		}
		b.StopTimer()
		e2.Shutdown()
		b.StartTimer()
	}
}

// BenchmarkSessionGroupCommit measures concurrent stepping under
// `-fsync always` on one shard, where queued steps share one fsync. The
// syncs/op metric shows the mechanism directly.
func BenchmarkSessionGroupCommit(b *testing.B) {
	b.Run("group", func(b *testing.B) {
		const nSessions = 64
		e, err := session.NewEngine(session.Config{
			Dir:    b.TempDir(),
			Shards: 1,
			Fsync:  session.FsyncAlways,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Shutdown()
		ids := make([]string, nSessions)
		for i := range ids {
			ids[i] = fmt.Sprintf("g-%03d", i)
			if _, err := e.Open(&session.OpenRequest{ID: ids[i], Model: "short"}); err != nil {
				b.Fatal(err)
			}
		}
		var next atomic.Int64
		b.SetParallelism(32) // force steps to queue on the one shard
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := next.Add(1)
				i := int(n) % nSessions
				if _, err := e.Input(ids[i], shopStep(i, int(n)/nSessions)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		st := e.Stats()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		if b.N > 0 {
			b.ReportMetric(float64(st.WALSyncs)/float64(b.N), "syncs/op")
			b.ReportMetric(float64(st.WALBytesTotal)/float64(b.N), "walB/op")
		}
	})
}

// TestGroupCommitCodecDensity drives the group-commit workload and holds
// the WAL to an absolute ceiling per step. The shard encoder's intern table
// is segment-scoped, so batched steps share constants — exactly the group
// commit path this guards. The ceiling is the binary codec's total when
// JSON was still writable (9,251 B = 28.91 B/step, against 85.52 B/step for
// JSON, 2.96x); the encoding is deterministic, so any growth is a format
// change.
func TestGroupCommitCodecDensity(t *testing.T) {
	const nSessions, nSteps = 16, 20
	const ceiling = 9251
	e, err := session.NewEngine(session.Config{
		Dir:    t.TempDir(),
		Shards: 1,
		Fsync:  session.FsyncNever, // density, not sync cost
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("d-%03d", i)
		if _, err := e.Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < nSteps; j++ {
			if _, err := e.Input(id, shopStep(i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := e.Stats().WALBytesTotal
	t.Logf("wal bytes: %d, %.2f/step (ceiling %d)", total, float64(total)/(nSessions*nSteps), ceiling)
	if total > ceiling {
		t.Errorf("WAL too fat: %d B for %d steps, ceiling %d", total, nSessions*nSteps, ceiling)
	}
}
