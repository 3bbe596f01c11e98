package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/session"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func orderInstance(item string) relation.Instance {
	in := relation.NewInstance()
	in.Add("order", relation.Tuple{relation.Const(item)})
	return in
}

// replCluster is n in-process backends, each hosting a warm follower of its
// predecessor (the FollowerOf convention on a ring of n), behind one router.
type replCluster struct {
	engines   []*session.Engine
	followers []*replica.Follower
	backends  []*httptest.Server
	urls      []string
	router    *Router
	front     *httptest.Server
}

func newReplCluster(t *testing.T, n int, cfg func(*RouterConfig)) *replCluster {
	t.Helper()
	tc := &replCluster{}
	// Unstarted servers first: every follower needs its primary's URL, and
	// the follow graph is a cycle, so all addresses must exist up front.
	for i := 0; i < n; i++ {
		// Durable primaries: only a WAL-backed engine can stream.
		e, err := session.NewEngine(session.Config{Dir: t.TempDir(), Shards: 2, Fsync: session.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(nil)
		tc.engines = append(tc.engines, e)
		tc.backends = append(tc.backends, srv)
		tc.urls = append(tc.urls, "http://"+srv.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		f, err := replica.New(replica.Config{
			Primary: tc.urls[(i-1+n)%n],
			Dir:     t.TempDir(),
			Shards:  2,
			Fsync:   session.FsyncNever,
			Poll:    100 * time.Millisecond,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.followers = append(tc.followers, f)
		tc.backends[i].Config.Handler = replica.Handler(f, tc.engines[i], nil, session.Handler(tc.engines[i]))
		tc.backends[i].Start()
	}
	for _, f := range tc.followers {
		f.Start()
	}
	rc := RouterConfig{
		Backends: tc.urls,
		Health:   HealthConfig{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailAfter: 2, MaxBackoff: 100 * time.Millisecond},
	}
	if cfg != nil {
		cfg(&rc)
	}
	rt, err := NewRouter(rc)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		rt.Close()
		for i := range tc.backends {
			tc.backends[i].Close()
			tc.followers[i].Stop()
			tc.engines[i].Shutdown()
		}
	})
	return tc
}

// ownedBy mints session IDs until one hashes to the wanted backend.
func (tc *replCluster) ownedBy(t *testing.T, addr, prefix string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("%s-%04d", prefix, i)
		if owner, err := tc.router.Ring().Lookup(id); err == nil && owner == addr {
			return id
		}
	}
	t.Fatalf("no id hashing to %s", addr)
	return ""
}

// followerHost returns the index of the backend following tc.urls[i].
func (tc *replCluster) followerHost(i int) int { return (i + 1) % len(tc.urls) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPromoteFailsOverSessions: kill a backend, promote its follower, and
// every session the dead backend owned is served again — same logs, still
// accepting steps — without replaying anything from the corpse.
func TestPromoteFailsOverSessions(t *testing.T) {
	tc := newReplCluster(t, 3, nil)
	victim := 0
	folHost := tc.followerHost(victim)

	ids := []string{
		tc.ownedBy(t, tc.urls[victim], "pf-a"),
		tc.ownedBy(t, tc.urls[victim], "pf-b"),
	}
	items := []string{"newsweek", "time", "fortune"}
	for _, id := range ids {
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
			t.Fatalf("open %s: %d", id, st)
		}
		for _, item := range items {
			if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput(item), nil); st != http.StatusOK {
				t.Fatalf("input %s: %d", id, st)
			}
		}
	}
	// Oracle: the logs as the primary acknowledged them.
	oracle := map[string]json.RawMessage{}
	for _, id := range ids {
		var lr struct {
			Log json.RawMessage `json:"log"`
		}
		if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK {
			t.Fatalf("log %s: %d", id, st)
		}
		oracle[id] = lr.Log
	}
	// Let the follower catch up fully before the crash.
	for _, id := range ids {
		id := id
		waitFor(t, "follower sync of "+id, func() bool {
			info, err := tc.followers[folHost].Engine().Info(id)
			return err == nil && info.Steps == len(items)
		})
	}

	tc.backends[victim].Close() // SIGKILL-equivalent for an httptest backend
	waitFor(t, "mark-down", func() bool { return !tc.router.Ring().Up(tc.urls[victim]) })

	var pr PromoteResult
	if st := postJSON(t, tc.front.URL+"/admin/promote?backend="+tc.urls[victim], nil, &pr); st != http.StatusOK {
		t.Fatalf("promote: %d", st)
	}
	if pr.Follower != tc.urls[folHost] || len(pr.Sessions) != len(ids) {
		t.Fatalf("promote result: %+v", pr)
	}

	for _, id := range ids {
		// Logs survive byte-for-byte.
		var lr struct {
			Log json.RawMessage `json:"log"`
		}
		if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK {
			t.Fatalf("log %s after promote: %d", id, st)
		}
		if string(lr.Log) != string(oracle[id]) {
			t.Fatalf("%s log after promote differs:\n got %s\nwant %s", id, lr.Log, oracle[id])
		}
		// And the session keeps stepping on its new home.
		var res session.StepResult
		if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("wired"), &res); st != http.StatusOK {
			t.Fatalf("input %s after promote: %d", id, st)
		}
		if res.Seq != len(items)+1 {
			t.Fatalf("%s after promote: seq %d", id, res.Seq)
		}
	}
	// Promoting a backend that is still up is refused without force.
	if st := postJSON(t, tc.front.URL+"/admin/promote?backend="+tc.urls[folHost], nil, nil); st == http.StatusOK {
		t.Fatal("promoted a live backend without force")
	}
}

// TestFollowerReads: with -follower-reads on, session reads are served by
// the owner's follower (observable via X-Spocus-Served-By) and match the
// primary's answer; mutations still go to the primary.
func TestFollowerReads(t *testing.T) {
	tc := newReplCluster(t, 2, func(rc *RouterConfig) {
		rc.FollowerReads = true
		rc.FollowerMaxLag = 0
	})
	victim := 0
	folHost := tc.followerHost(victim)
	id := tc.ownedBy(t, tc.urls[victim], "fr")
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
		t.Fatalf("open: %d", st)
	}
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("time"), nil); st != http.StatusOK {
		t.Fatalf("input: %d", st)
	}
	waitFor(t, "follower sync", func() bool {
		info, err := tc.followers[folHost].Engine().Info(id)
		return err == nil && info.Steps == 1
	})
	resp, err := http.Get(tc.front.URL + "/sessions/" + id + "/log")
	if err != nil {
		t.Fatal(err)
	}
	var lr struct {
		Log any `json:"log"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("log: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Spocus-Served-By"); got != tc.urls[folHost] {
		t.Fatalf("served by %q, want follower %s", got, tc.urls[folHost])
	}
	gotJSON, _ := json.Marshal(lr.Log)
	want, err := tc.engines[victim].Log(id)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Log)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("follower-served log differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// Writes are untouched by follower routing.
	var res session.StepResult
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), &res); st != http.StatusOK || res.Seq != 2 {
		t.Fatalf("write with follower reads on: %d seq %d", st, res.Seq)
	}
	if tc.router.m.followerReads.Load() == 0 {
		t.Fatal("follower_reads_total never incremented")
	}
}

// TestFollowerReadLagBound: a follower whose self-reported lag exceeds the
// bound never serves the read — the primary answers instead. Fake servers
// make the lag deterministic.
func TestFollowerReadLagBound(t *testing.T) {
	eng, err := session.NewEngine(session.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	primary := httptest.NewServer(session.Handler(eng))
	defer primary.Close()

	var mu sync.Mutex
	lag := int64(5)
	stale := `{"log":[{"stale":[["yes"]]}]}`
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		l := lag
		mu.Unlock()
		switch {
		case r.URL.Path == "/replica/state":
			fmt.Fprintf(w, `{"following":%q,"lag":%d,"sessions":1}`, primary.URL, l)
		case r.URL.Path == "/healthz":
			fmt.Fprint(w, `{"ok":true}`)
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, stale)
		}
	}))
	defer follower.Close()

	rt, err := NewRouter(RouterConfig{
		Backends:       []string{primary.URL, follower.URL},
		Health:         HealthConfig{Interval: 20 * time.Millisecond, FailAfter: 2},
		FollowerReads:  true,
		FollowerMaxLag: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("lb-%04d", i)
		if owner, err := rt.Ring().Lookup(id); err == nil && owner == primary.URL {
			break
		}
	}
	if _, err := eng.Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
		t.Fatal(err)
	}

	// Lag 5 > bound 2: the primary answers, no served-by header.
	resp, err := http.Get(front.URL + "/sessions/" + id + "/log")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("log: %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Spocus-Served-By"); h != "" {
		t.Fatalf("lagging follower served the read (served-by %s)", h)
	}

	// Lag inside the bound (cache must expire first): the follower serves.
	mu.Lock()
	lag = 1
	mu.Unlock()
	waitFor(t, "follower cache refresh", func() bool {
		resp, err := http.Get(front.URL + "/sessions/" + id + "/log")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.Header.Get("X-Spocus-Served-By") == follower.URL
	})
}

// TestKeyedRetryAcrossPromotion: a POST carrying an Idempotency-Key whose
// owner dies mid-request is retried transparently; once promotion re-homes
// the session, the retry lands there and the client sees one clean answer.
func TestKeyedRetryAcrossPromotion(t *testing.T) {
	tc := newReplCluster(t, 3, nil)
	victim := 0
	folHost := tc.followerHost(victim)
	id := tc.ownedBy(t, tc.urls[victim], "kr")
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
		t.Fatalf("open: %d", st)
	}
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("time"), nil); st != http.StatusOK {
		t.Fatalf("input: %d", st)
	}
	waitFor(t, "follower sync", func() bool {
		info, err := tc.followers[folHost].Engine().Info(id)
		return err == nil && info.Steps == 1
	})

	tc.backends[victim].Close()

	// The keyed request starts while the backend is dead and un-promoted;
	// the router must hold it through mark-down + promotion.
	type answer struct {
		status int
		res    session.StepResult
	}
	got := make(chan answer, 1)
	go func() {
		body := []byte(`{"input":{"order":[["newsweek"]]}}`)
		req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/sessions/"+id+"/input", bytesReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- answer{status: -1}
			return
		}
		defer resp.Body.Close()
		var res session.StepResult
		json.NewDecoder(resp.Body).Decode(&res)
		got <- answer{status: resp.StatusCode, res: res}
	}()

	waitFor(t, "mark-down", func() bool { return !tc.router.Ring().Up(tc.urls[victim]) })
	if _, err := tc.router.Promote(tc.urls[victim], false); err != nil {
		t.Fatalf("promote: %v", err)
	}
	a := <-got
	if a.status != http.StatusOK || a.res.Seq != 2 {
		t.Fatalf("keyed request across failover: status %d, res %+v", a.status, a.res)
	}
	// The same key again answers the same step as a duplicate — proof the
	// retry path cannot double-apply either.
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/sessions/"+id+"/input", bytesReader([]byte(`{"input":{"order":[["fortune"]]}}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "retry-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var res session.StepResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if !res.Duplicate || res.Seq != 2 {
		t.Fatalf("dup after failover: %+v", res)
	}
	if tc.router.m.keyedRetries.Load() == 0 {
		t.Fatal("keyed_retries_total never incremented")
	}
}

// TestHandoffTargetMarkedDownMidFlight is the regression test for the
// mark-down/handoff race: the health checker flips the target down after
// the session has moved but before the source is retired. The handoff must
// roll back — source unfrozen and still owning, no pin to the down target,
// no orphan copy — instead of pinning the session to a dead backend.
func TestHandoffTargetMarkedDownMidFlight(t *testing.T) {
	engines := make([]*session.Engine, 2)
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range engines {
		e, err := session.NewEngine(session.Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
		defer e.Shutdown()
	}
	var rt *Router
	// Source serves normally; the target simulates the racing prober by
	// marking itself down the moment the install lands — after the move,
	// before the retire. The install's response is held until the mark is
	// made: answered first, the router could re-check the ring before the
	// mark and finish the handoff. From then on the target also fails its
	// health probe, so the probe the mark kicks cannot flip it back up
	// before the re-check.
	servers[0].Config.Handler = session.Handler(engines[0])
	inner := session.Handler(engines[1])
	var installed atomic.Bool
	servers[1].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz" && installed.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		case r.URL.Path != "/admin/install":
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		installed.Store(true)
		rt.checker.markDown(urls[1])
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	for _, s := range servers {
		s.Start()
		defer s.Close()
	}
	var err error
	rt, err = NewRouter(RouterConfig{
		Backends: urls,
		// Slow prober: only the injected markDown flips state mid-test.
		Health: HealthConfig{Interval: time.Hour, Timeout: time.Second, FailAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("race-%04d", i)
		if owner, err := rt.Ring().Lookup(id); err == nil && owner == urls[0] {
			break
		}
	}
	if _, err := engines[0].Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := engines[0].Input(id, orderInstance("time")); err != nil {
		t.Fatal(err)
	}

	if _, err := rt.Handoff(id, urls[1]); err == nil {
		t.Fatal("handoff to a target marked down mid-flight succeeded")
	}
	// No pin: the session still routes to its hash home once the target is
	// back up (the pin table must not have flipped).
	rt.Ring().SetUp(urls[1], true)
	owner, err := rt.Ring().Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if owner != urls[0] {
		t.Fatalf("session routed to %s after rolled-back handoff, want %s", owner, urls[0])
	}
	// Source copy is unfrozen and serving.
	if _, err := engines[0].Input(id, orderInstance("newsweek")); err != nil {
		t.Fatalf("source session after rollback: %v", err)
	}
	// No orphan on the target.
	if _, err := engines[1].Info(id); err == nil {
		t.Fatal("orphan session copy survived on the rolled-back target")
	}
}

// TestHandoffShipFailureRollsBack forces the ship itself to fail — the
// target already holds the ID (install answers 409), and the image arrives
// with a digest that does not match its log (install answers 400) — and
// checks the one rollback path: an error is returned, the target holds no
// copy, the source is thawed and stepping, and the ring has not moved.
func TestHandoffShipFailureRollsBack(t *testing.T) {
	// corruptDigest rewrites an export-state response to carry the digest of
	// some other log; everything else passes through.
	corruptDigest := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/export-state") {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			se, err := session.DecodeStateExport(rec.Body.Bytes())
			if err != nil {
				t.Errorf("export-state body: %v", err)
				return
			}
			se.Digest = session.LogDigest(nil)
			data, err := session.EncodeStateExport(se)
			if err != nil {
				t.Errorf("re-encode: %v", err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		})
	}
	for _, tc := range []struct {
		name       string
		wrapSource func(http.Handler) http.Handler
		squat      bool // open the same ID on the target beforehand
	}{
		{name: "target holds the id", squat: true},
		{name: "corrupted digest", wrapSource: corruptDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines := make([]*session.Engine, 2)
			urls := make([]string, 2)
			for i := range engines {
				e, err := session.NewEngine(session.Config{Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Shutdown()
				h := session.Handler(e)
				if i == 0 && tc.wrapSource != nil {
					h = tc.wrapSource(h)
				}
				srv := httptest.NewServer(h)
				defer srv.Close()
				engines[i], urls[i] = e, srv.URL
			}
			rt, err := NewRouter(RouterConfig{
				Backends: urls,
				Health:   HealthConfig{Interval: time.Hour, Timeout: time.Second, FailAfter: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			var id string
			for i := 0; ; i++ {
				id = fmt.Sprintf("shipfail-%04d", i)
				if owner, err := rt.Ring().Lookup(id); err == nil && owner == urls[0] {
					break
				}
			}
			if _, err := engines[0].Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
				t.Fatal(err)
			}
			if _, err := engines[0].Input(id, orderInstance("time")); err != nil {
				t.Fatal(err)
			}
			if tc.squat {
				if _, err := engines[1].Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
					t.Fatal(err)
				}
			}

			res, err := rt.Handoff(id, urls[1])
			if err == nil {
				t.Fatalf("handoff succeeded: %+v", res)
			}
			if _, err := engines[1].Info(id); err == nil {
				t.Fatal("a copy survives on the target after the rolled-back ship")
			}
			step, err := engines[0].Input(id, orderInstance("newsweek"))
			if err != nil || step.Seq != 2 {
				t.Fatalf("source session after rollback: %+v, %v", step, err)
			}
			if owner, err := rt.Ring().Lookup(id); err != nil || owner != urls[0] {
				t.Fatalf("ring moved: owner %s, %v; want %s", owner, err, urls[0])
			}
			if pins := rt.Ring().Snapshot().Pins; len(pins) != 0 {
				t.Fatalf("ring pinned after a failed handoff: %v", pins)
			}
			if n := rt.m.snapshot()["handoffs_total"]; n != 0 {
				t.Fatalf("handoffs_total = %d after a failed handoff", n)
			}
		})
	}
}
