package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/session"
)

// newPrimary builds a durable primary engine behind an httptest server.
func newPrimary(t *testing.T, shards int) (*session.Engine, *httptest.Server) {
	t.Helper()
	e, err := session.NewEngine(session.Config{Dir: t.TempDir(), Shards: shards, Fsync: session.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(session.Handler(e))
	t.Cleanup(func() { srv.Close(); e.Shutdown() })
	return e, srv
}

func newFollower(t *testing.T, primary string) *Follower {
	t.Helper()
	f, err := New(Config{
		Primary: primary,
		Dir:     t.TempDir(),
		Shards:  2,
		Fsync:   session.FsyncNever,
		Poll:    200 * time.Millisecond,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Stop() })
	return f
}

// waitSteps polls until the standby holds session id at exactly steps.
func waitSteps(t *testing.T, f *Follower, id string, steps int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if info, err := f.Engine().Info(id); err == nil && info.Steps == steps {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	info, err := f.Engine().Info(id)
	t.Fatalf("standby never reached %s@%d (have %+v, err %v)", id, steps, info, err)
}

func TestFollowerStreamsAndPromotes(t *testing.T) {
	prim, srv := newPrimary(t, 2)
	inputs := models.Fig1Inputs()
	// A session opened BEFORE the follower exists: streamed from LSN 1.
	if _, err := prim.Open(&session.OpenRequest{ID: "early", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Input("early", inputs[0]); err != nil {
		t.Fatal(err)
	}

	f := newFollower(t, srv.URL)
	f.Start()
	waitSteps(t, f, "early", 1)

	// Live traffic while following, across several sessions and both kinds
	// of steps (keyed and not).
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		if _, err := prim.Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
		for j, in := range inputs {
			if _, err := prim.InputKey(id, fmt.Sprintf("%s-k%d", id, j), in); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := prim.Input("early", inputs[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		waitSteps(t, f, fmt.Sprintf("s%d", i), len(inputs))
	}
	waitSteps(t, f, "early", 2)

	// Logs on the standby are byte-identical to the primary's.
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		want, err := prim.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Engine().Log(id)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want.Log)
		gotJSON, _ := json.Marshal(got.Log)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%s standby log differs:\n got %s\nwant %s", id, gotJSON, wantJSON)
		}
	}

	// Closes replicate too.
	if _, err := prim.Close("early"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := f.Engine().Info("early"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("closed session never retired on standby")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Promote into a fresh serving engine: every session lands with its log
	// intact, dedupe keys included.
	dst, err := session.NewEngine(session.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	res, err := f.Promote(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 4 {
		t.Fatalf("promoted %v, want 4 sessions", res.Sessions)
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		want, _ := prim.Log(id)
		got, err := dst.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want.Log)
		gotJSON, _ := json.Marshal(got.Log)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%s promoted log differs", id)
		}
		// A client retry of an acked step answers as duplicate post-promotion.
		dup, err := dst.InputKey(id, id+"-k0", inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !dup.Duplicate || dup.Seq != 1 {
			t.Fatalf("%s post-promotion retry: seq %d dup=%v", id, dup.Seq, dup.Duplicate)
		}
	}
	// The standby gave its sessions up.
	infos, err := f.Engine().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("standby still holds %d sessions after promotion", len(infos))
	}
}

func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	prim, srv := newPrimary(t, 1)
	inputs := models.Fig1Inputs()
	if _, err := prim.Open(&session.OpenRequest{ID: "kept", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Open(&session.OpenRequest{ID: "gone", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs[:2] {
		if _, err := prim.Input("kept", in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prim.Close("gone"); err != nil {
		t.Fatal(err)
	}
	// Compact: the WAL prefix (including gone's whole life) is only
	// reachable as a snapshot now.
	if err := prim.Snapshot(); err != nil {
		t.Fatal(err)
	}

	f := newFollower(t, srv.URL)
	f.Start()
	waitSteps(t, f, "kept", 2)
	if _, err := f.Engine().Info("gone"); err == nil {
		t.Fatal("standby resurrected a session closed before the snapshot")
	}

	// Streaming continues past the bootstrap.
	if _, err := prim.Input("kept", inputs[2]); err != nil {
		t.Fatal(err)
	}
	waitSteps(t, f, "kept", 3)

	want, _ := prim.Log("kept")
	got, err := f.Engine().Log("kept")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Log)
	gotJSON, _ := json.Marshal(got.Log)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("standby log differs after bootstrap:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestFollowerResumesFromPersistedPosition(t *testing.T) {
	prim, srv := newPrimary(t, 1)
	inputs := models.Fig1Inputs()
	if _, err := prim.Open(&session.OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Input("s", inputs[0]); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f, err := New(Config{Primary: srv.URL, Dir: dir, Shards: 1, Fsync: session.FsyncNever, Poll: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	waitSteps(t, f, "s", 1)
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	// More primary traffic while the follower is down.
	if _, err := prim.Input("s", inputs[1]); err != nil {
		t.Fatal(err)
	}

	f2, err := New(Config{Primary: srv.URL, Dir: dir, Shards: 1, Fsync: session.FsyncNever, Poll: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	// The restart recovered step 1 from the standby's own WAL (not the
	// stream) and resumes tailing from the persisted position.
	if info, err := f2.Engine().Info("s"); err != nil || info.Steps != 1 {
		t.Fatalf("standby after restart: %+v, %v", info, err)
	}
	f2.Start()
	waitSteps(t, f2, "s", 2)
}

func TestReplicaHandler(t *testing.T) {
	prim, srv := newPrimary(t, 1)
	inputs := models.Fig1Inputs()
	if _, err := prim.Open(&session.OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Input("s", inputs[0]); err != nil {
		t.Fatal(err)
	}
	f := newFollower(t, srv.URL)
	f.Start()
	waitSteps(t, f, "s", 1)

	dst, err := session.NewEngine(session.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	front := httptest.NewServer(Handler(f, dst, nil, http.NotFoundHandler()))
	defer front.Close()

	var st StateResponse
	getJSON(t, front.URL+"/replica/state", &st)
	if st.Following != srv.URL || st.Sessions != 1 {
		t.Fatalf("state: %+v", st)
	}

	// Read-only views answer from the standby.
	var lr struct {
		Log any `json:"log"`
	}
	getJSON(t, front.URL+"/replica/sessions/s/log", &lr)
	want, _ := prim.Log("s")
	wantJSON, _ := json.Marshal(want.Log)
	gotJSON, _ := json.Marshal(lr.Log)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("follower-served log differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Mutations through the replica surface are refused.
	resp, err := http.Post(front.URL+"/replica/sessions/s/input", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST through replica: %d, want 405", resp.StatusCode)
	}

	// Promote over HTTP.
	resp, err = http.Post(front.URL+"/admin/replica/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr PromoteResult
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Sessions) != 1 || pr.Sessions[0] != "s" {
		t.Fatalf("promote: %d %+v", resp.StatusCode, pr)
	}
	if info, err := dst.Info("s"); err != nil || info.Steps != 1 {
		t.Fatalf("promoted session: %+v, %v", info, err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestSemiSyncAckImpliesReplicated pins the property ReplSyncWait exists
// for: once the follower has acked once, every subsequently-acked step is
// ALREADY applied on the standby at the moment the client sees its 2xx —
// which is exactly what lets promotion keep every acked step after the
// primary is lost without replaying anything.
func TestSemiSyncAckImpliesReplicated(t *testing.T) {
	prim, err := session.NewEngine(session.Config{
		Dir: t.TempDir(), Shards: 2, Fsync: session.FsyncNever,
		ReplSyncWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(session.Handler(prim))
	t.Cleanup(func() { srv.Close(); prim.Shutdown() })

	if _, err := prim.Open(&session.OpenRequest{ID: "ss", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	f := newFollower(t, srv.URL)
	f.Start()
	waitSteps(t, f, "ss", 0)

	// The hold engages at the first ack; wait for it so every step below is
	// under the semi-sync contract. Only "ss" has records, so a non-zero
	// acked LSN is necessarily its shard's.
	deadline := time.Now().Add(10 * time.Second)
	for prim.Stats().ReplAcked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never acked")
		}
		time.Sleep(5 * time.Millisecond)
	}

	inputs := models.Fig1Inputs()
	for j, in := range inputs {
		if _, err := prim.Input("ss", in); err != nil {
			t.Fatal(err)
		}
		// No waiting: the ack itself is the synchronization point.
		info, err := f.Engine().Info("ss")
		if err != nil || info.Steps < j+1 {
			t.Fatalf("step %d acked but standby has %+v (err %v)", j+1, info, err)
		}
	}
	if n := prim.Stats().ReplSyncTimeouts; n != 0 {
		t.Fatalf("semi-sync degraded %d times against a healthy follower", n)
	}
}

// TestConcurrentSavesKeepStateWhole saves the position from every shard's
// tailer at once, the way tail does after each batch, and reloads
// REPLSTATE.json after every round: the file must always parse, and it must
// hold the newest position, not an older save that finished last.
func TestConcurrentSavesKeepStateWhole(t *testing.T) {
	const shards, rounds = 8, 300
	f := &Follower{cfg: Config{Primary: "http://primary", Dir: t.TempDir()}}
	f.st = replState{Primary: f.cfg.Primary, Shards: shards, Pos: make([]shardPos, shards)}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < shards; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Alternate short and long positions so a torn write leaves
				// a stale tail behind a shorter one.
				applied := int64(9)
				if (r+g)%2 == 1 {
					applied = 1_000_000_000 + int64(r)
				}
				f.mu.Lock()
				f.st.Pos[g] = shardPos{Applied: applied, Committed: applied}
				f.mu.Unlock()
				f.saveState()
			}(g)
		}
		wg.Wait()
		want, err := json.Marshal(&f.st)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.loadState(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		got, err := json.Marshal(&f.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("round %d: reloaded %s, want the newest position %s", r, got, want)
		}
	}
}
