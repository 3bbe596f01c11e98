package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/session"
	"repro/internal/wire"
)

// The common shape of every workload: one process, a closed loop of two
// client goroutines that wait for each ack (the position of a router or
// gateway in front of the engine), two engine shards, GC percent 100, and
// no more connections than clients.
const (
	clients   = 2
	shards    = 2
	warmShare = 0.05 // leading share of each client's ops run untimed in set-up
	goal      = "deliver(X)"
)

// workloadDef names a workload and why it exists.
type workloadDef struct {
	name string
	why  string
	// rate is the workload's acked steps per second on the commit that
	// introduced the benchmark (2 cores): --seconds × rate fixes the step
	// count, so counts repeat exactly and the timed region lasts about
	// --seconds on that commit.
	rate     float64
	sessions int
	gen      func(seed int64, sessions, stepsPer int) *plan
	cfg      func(dir string) session.Config
	durable  bool // has a Dir: WAL, snapshots, crash image and recovery
	syncs    bool // fsync always: acks wait for the group commit
	http     bool
	verify   bool
}

var workloads = []*workloadDef{
	{
		name: "wide_mem", rate: 40000, sessions: 2000,
		why: "in-process memory engine, 2000 small sessions over all ten models: core/ra evaluation and the shard mailbox are all the work; codec, storage, wire, cluster and live do nothing",
		gen: genWide,
		cfg: func(string) session.Config { return session.Config{Shards: shards} },
	},
	{
		name: "durable_batch", rate: 20000, sessions: 1024, durable: true, syncs: true,
		why: "same model mix on a WAL with fsync always, 64-item keyed InputBatch calls plus 1 single, then crash image and recovery: adds codec, storage, group commit and snapshots to wide_mem",
		gen: func(seed int64, n, steps int) *plan { return genBatched(seed, "d", n, steps, 1) },
		cfg: func(dir string) session.Config {
			return session.Config{Shards: shards, Dir: dir, Fsync: session.FsyncAlways, Codec: session.CodecBinary}
		},
	},
	{
		name: "cluster_http", rate: 32000, sessions: 1024, http: true,
		why: "a router and two memory backends on loopback TCP, 64-step /batch envelopes plus 4 single POSTs on 2 connections: JSON, wire round trips and cluster split/merge dominate; storage is off",
		gen: func(seed int64, n, steps int) *plan { return genBatched(seed, "c", n, steps, 4) },
		cfg: func(string) session.Config { return session.Config{Shards: shards} },
	},
	{
		name: "deep_state", rate: 2400, sessions: 8, durable: true,
		why: "8 sessions whose state and history grow all run (unique auction lots, a 4096-item catalogue), WAL without fsync, log reads, recovery: large-relation evaluation and O(history) snapshots dominate",
		gen: func(seed int64, n, steps int) *plan { return genDeep(seed, steps, 64) },
		cfg: func(dir string) session.Config {
			return session.Config{Shards: shards, Dir: dir, Fsync: session.FsyncNever, Codec: session.CodecBinary}
		},
	},
	{
		name: "verify_mix", rate: 28000, sessions: 512, verify: true,
		why: "512 SHORT-family sessions from 64 customer profiles, a Peek+Goal read after every 8th step: answer cache, singleflight and the verify/sat cold path run beside the step path",
		gen: func(seed int64, n, steps int) *plan { return genVerify(seed, n, steps, 64, 8) },
		cfg: func(string) session.Config { return session.Config{Shards: shards} },
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params sizes one run.
type params struct {
	seed    int64
	seconds float64
	// scale multiplies the step count (the traced run uses 0.25).
	scale float64
	// small shrinks the session population as well (the smoke test).
	small bool
	tmp   string // parent directory for durable fixtures
}

// size returns the session count and script length of a run.
func (w *workloadDef) size(p params) (sessions, stepsPer int) {
	sessions = w.sessions
	if p.small && sessions > 128 {
		sessions = 128
	}
	total := w.rate * p.seconds * p.scale
	stepsPer = int(math.Round(total / float64(sessions)))
	if stepsPer < 10 {
		stepsPer = 10
	}
	return sessions, stepsPer
}

// fixture is one set-up instance of a workload: generated plan, live
// engine(s), and everything needed to tear it down.
type fixture struct {
	w    *workloadDef
	p    params
	plan *plan
	tr   *tracer

	eng *session.Engine // in-process workloads
	dir string
	lv  *live.Service
	cl  *clusterFx

	warm     [clients]int    // warm-up ops per client, already executed
	openDur  []time.Duration // one per session open
	setupDur time.Duration

	// Operations attempted and failed so far, warm-up and the gate's checks
	// included. One client op (a 64-item batch too) and one gate check each
	// count once on both sides, so failed never exceeds attempted.
	attempted int
	failed    int
	mu        sync.Mutex // guards failNote
	failNote  []string   // the first few failures, as diagnostics
}

// note records why something failed; it does not count.
func (f *fixture) note(format string, args ...any) {
	f.mu.Lock()
	if len(f.failNote) < 8 {
		f.failNote = append(f.failNote, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// expect counts one check of the gate and, when it does not hold, one
// failure. Only the goroutine that runs the gate calls it.
func (f *fixture) expect(ok bool, format string, args ...any) bool {
	f.attempted++
	if !ok {
		f.failed++
		f.note(format, args...)
	}
	return ok
}

// clusterFx is cluster_http's serving side: two memory backends and one
// router, each on its own loopback listener, all inside this process.
type clusterFx struct {
	backends []*session.Engine
	servers  []*http.Server
	served   sync.WaitGroup
	router   *cluster.Router
	upstream *wire.Client    // the router's client
	pool     *http.Transport // under the router client's spanning RoundTripper
	client   *wire.Client    // the load generator's client
	url      string          // router base URL
	addrs    []string        // backend base URLs
}

func serve(cl *clusterFx, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	cl.servers = append(cl.servers, srv)
	cl.served.Add(1)
	go func() {
		defer cl.served.Done()
		srv.Serve(ln) // returns on Close
	}()
	return "http://" + ln.Addr().String(), nil
}

func (cl *clusterFx) close() {
	cl.client.Close()
	for _, srv := range cl.servers {
		srv.Close()
	}
	cl.served.Wait()
	if cl.router != nil {
		cl.router.Close()
	}
	cl.upstream.Close()
	cl.pool.CloseIdleConnections()
	for _, e := range cl.backends {
		e.Shutdown()
	}
}

func (f *fixture) startCluster() error {
	cl := &clusterFx{}
	f.cl = cl
	// The router's client runs on the spanning RoundTripper in every run, so
	// the traced and untraced passes differ in the spans alone; untraced, it
	// hands each request straight on. wire does not export the transport it
	// would build, so the pool under it repeats wire's default sizes.
	cl.pool = &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 256, IdleConnTimeout: 90 * time.Second}
	cl.upstream = wire.New(wire.Config{Name: "bench-router", Transport: &spanTransport{t: f.tr, next: cl.pool}})
	cl.client = wire.New(wire.Config{Name: "bench-client", MaxConnsPerHost: clients})
	for i := 0; i < 2; i++ {
		e, err := session.NewEngine(f.w.cfg(""))
		if err != nil {
			return err
		}
		cl.backends = append(cl.backends, e)
		h := session.HandlerWith(e, live.New(live.Config{}))
		addr, err := serve(cl, spanMiddleware(f.tr, "backend", h))
		if err != nil {
			return err
		}
		cl.addrs = append(cl.addrs, addr)
	}
	// Probe timeouts are generous: both cores are saturated by design, and
	// a probe that waits must not turn a backend "down" mid-run.
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: cl.addrs,
		Client:   cl.upstream,
		Health:   cluster.HealthConfig{Timeout: 5 * time.Second, FailAfter: 5},
	})
	if err != nil {
		return err
	}
	cl.router = rt
	cl.url, err = serve(cl, spanMiddleware(f.tr, "router", rt.Handler()))
	return err
}

// setUp builds a fixture from scratch: generate, start the engine(s), open
// every session, pre-encode, and run the warm-up share of every client's
// ops. All of it is setup_s.
func setUp(w *workloadDef, p params, tr *tracer) (*fixture, error) {
	start := time.Now()
	f := &fixture{w: w, p: p, tr: tr}
	sessions, stepsPer := w.size(p)
	f.plan = w.gen(p.seed, sessions, stepsPer)

	if w.http {
		if err := f.startCluster(); err != nil {
			f.tearDown()
			return nil, err
		}
		f.encodeHTTP()
	} else {
		if w.durable {
			dir, err := os.MkdirTemp(p.tmp, w.name+"-")
			if err != nil {
				return nil, err
			}
			f.dir = dir
		}
		eng, err := session.NewEngine(w.cfg(filepath.Join(f.dir, "data")))
		if err != nil {
			f.tearDown()
			return nil, err
		}
		f.eng = eng
		if w.verify {
			f.lv = live.New(live.Config{Workers: 2})
		}
	}
	if err := f.openAll(); err != nil {
		f.tearDown()
		return nil, err
	}
	for c := range f.plan.ops {
		f.warm[c] = int(math.Ceil(warmShare * float64(len(f.plan.ops[c]))))
	}
	f.drive(func(c int) []op { return f.plan.ops[c][:f.warm[c]] })
	f.setupDur = time.Since(start)
	return f, nil
}

func (f *fixture) tearDown() {
	if f.cl != nil {
		f.cl.close()
	}
	if f.eng != nil {
		f.eng.Shutdown()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// openAll opens every session, each client opening its own.
func (f *fixture) openAll() error {
	durs := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, s := range f.plan.sessions {
				if s.client != c {
					continue
				}
				req := &session.OpenRequest{ID: s.id, Model: s.model, DB: s.db}
				t0 := time.Now()
				var err error
				if f.cl != nil {
					err = f.cl.client.PostJSON(context.Background(), f.cl.url+"/sessions", req, nil, nil)
				} else {
					_, err = f.eng.Open(req)
				}
				if err != nil {
					errs[c] = fmt.Errorf("open %s: %w", s.id, err)
					return
				}
				durs[c] = append(durs[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	for c := range durs {
		if errs[c] != nil {
			return errs[c]
		}
		f.openDur = append(f.openDur, durs[c]...)
	}
	return nil
}

// encodeHTTP pre-encodes every op's URL and body, so the timed loop sends
// prebuilt bytes and measures the server's wire, not the driver's encoder.
func (f *fixture) encodeHTTP() {
	for c := range f.plan.ops {
		for i := range f.plan.ops[c] {
			o := &f.plan.ops[c][i]
			var err error
			switch o.kind {
			case opBatch:
				o.url = f.cl.url + "/batch"
				o.body, err = json.Marshal(session.BatchRequest{Steps: o.items, Results: "errors"})
			case opStep:
				o.url = f.cl.url + "/sessions/" + f.plan.sessions[o.s].id + "/input"
				o.body, err = json.Marshal(map[string]any{"input": o.in})
			}
			if err != nil {
				panic(err) // generated instances always marshal
			}
		}
	}
}

// clientRun is what one client observed while driving a stretch of ops.
type clientRun struct {
	lat       [nOpKinds]latencies
	hit, cold latencies // opVerify's Goal call, split by whether the answer was cached
	peek      latencies
	attempted int
	failed    int   // ops refused, errored or acked wrongly
	acked     int   // steps acknowledged
	bytes     int64 // HTTP request + response body bytes
}

// drive runs every client over its ops concurrently, each waiting for one
// ack before sending the next, and returns what each observed.
func (f *fixture) drive(ops func(c int) []op) []*clientRun {
	runs := make([]*clientRun, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		runs[c] = &clientRun{}
		wg.Add(1)
		go func(r *clientRun, mine []op) {
			defer wg.Done()
			for i := range mine {
				o := &mine[i]
				r.attempted++
				t0 := time.Now()
				acked, ok := f.exec(r, o)
				if ok {
					r.lat[o.kind].add(time.Since(t0))
				} else {
					// A refused or failed operation contributes no sample.
					r.failed++
				}
				r.acked += acked
			}
		}(runs[c], ops(c))
	}
	wg.Wait()
	for _, r := range runs {
		f.attempted += r.attempted
		f.failed += r.failed
	}
	return runs
}

// exec performs one client operation and checks its ack. It returns the
// steps acked and whether the whole operation succeeded.
func (f *fixture) exec(r *clientRun, o *op) (acked int, ok bool) {
	if f.cl != nil {
		return f.execHTTP(r, o)
	}
	switch o.kind {
	case opStep:
		s := f.plan.sessions[o.s]
		id := f.tr.begin("session.Input", 0, 1)
		res, err := f.eng.Input(s.id, o.in)
		f.tr.end(id)
		return f.ackStep(s, o.j, res, err)
	case opBatch:
		id := f.tr.begin("session.InputBatch", 0, len(o.items))
		results := f.eng.InputBatch(o.items)
		f.tr.end(id)
		ok = true
		for k := range results {
			n, good := f.ackStep(f.plan.sessions[o.bs[k]], o.bj[k], results[k].Result, results[k].Err)
			acked += n
			ok = ok && good
		}
		return acked, ok
	case opLog:
		s := f.plan.sessions[o.s]
		id := f.tr.begin("session.Log", 0, 0)
		lr, err := f.eng.Log(s.id)
		f.tr.end(id)
		if err != nil || len(lr.Log) != s.acked {
			f.note("log %s does not hold the %d acked steps (err %v)", s.id, s.acked, err)
			return 0, false
		}
		return 0, true
	case opVerify:
		s := f.plan.sessions[o.s]
		t0 := time.Now()
		id := f.tr.begin("session.Peek", 0, 0)
		view, err := f.eng.Peek(s.id)
		f.tr.end(id)
		if err != nil {
			f.note("peek %s: %v", s.id, err)
			return 0, false
		}
		t1 := time.Now()
		r.peek.add(t1.Sub(t0))
		id = f.tr.begin("live.Goal", 0, 0)
		a, err := f.lv.Goal(context.Background(), live.Source{Model: view.Model, DB: view.DB, Past: view.Past}, goal)
		f.tr.end(id)
		// Every profile leaves catalogue items unbought, so a delivery stays
		// reachable: the expected answer is known without a second solver.
		if err != nil || !a.Reachable {
			f.note("goal %s: reachable=%v err=%v", s.id, a != nil && a.Reachable, err)
			return 0, false
		}
		if a.Cached {
			r.hit.add(time.Since(t1))
		} else {
			r.cold.add(time.Since(t1))
		}
		return 0, true
	}
	panic("benchmark: unknown op kind")
}

// ackStep checks one step's ack: no error, and — where the ack carries a
// result — the sequence number the session's acked count implies, so a
// double-applied or dropped step shows at once. Only the session's own
// client calls it.
func (f *fixture) ackStep(s *sess, j int32, res *session.StepResult, err error) (int, bool) {
	if err != nil {
		s.failed = append(s.failed, int(j))
		f.note("step %s/%d: %v", s.id, j, err)
		return 0, false
	}
	s.acked++
	if res != nil && (res.Seq != s.acked || res.Duplicate) {
		f.note("step %s/%d: acked as seq %d (duplicate=%v), want %d", s.id, j, res.Seq, res.Duplicate, s.acked)
		return 0, false
	}
	return 1, true
}

// post sends one pre-encoded body through the wire client and returns the
// response body. A non-2xx status (429 and 503 refusals included) is an
// error: the benchmark does not retry, it counts.
func (f *fixture) post(r *clientRun, url string, body []byte, parent int32) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(parent)))
	}
	resp, err := f.cl.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	r.bytes += int64(len(body) + len(out))
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

func (f *fixture) execHTTP(r *clientRun, o *op) (acked int, ok bool) {
	switch o.kind {
	case opStep:
		s := f.plan.sessions[o.s]
		id := f.tr.begin("client.step", 0, 1)
		out, err := f.post(r, o.url, o.body, id)
		f.tr.end(id)
		var res session.StepResult
		if err == nil {
			err = json.Unmarshal(out, &res)
		}
		return f.ackStep(s, o.j, &res, err)
	case opBatch:
		id := f.tr.begin("client.batch", 0, len(o.bs))
		out, err := f.post(r, o.url, o.body, id)
		f.tr.end(id)
		var resp session.BatchResponse
		if err == nil {
			err = json.Unmarshal(out, &resp)
		}
		if err == nil && resp.N != len(o.bs) {
			err = fmt.Errorf("envelope acked %d of %d items", resp.N, len(o.bs))
		}
		if err != nil {
			for k := range o.bs {
				f.ackStep(f.plan.sessions[o.bs[k]], o.bj[k], nil, err)
			}
			return 0, false
		}
		bad := make(map[int]string, len(resp.Failed))
		for _, fl := range resp.Failed {
			bad[fl.Pos] = fmt.Sprintf("status %d: %s", fl.Status, fl.Error)
		}
		for k := range o.bs {
			var itemErr error
			if msg, failed := bad[k]; failed {
				itemErr = fmt.Errorf("%s", msg)
			}
			// The sparse ack carries no per-item result; the end-of-run
			// oracle is what catches a double-applied envelope item.
			n, _ := f.ackStep(f.plan.sessions[o.bs[k]], o.bj[k], nil, itemErr)
			acked += n
		}
		return acked, len(bad) == 0
	}
	panic("benchmark: cluster_http has no such op")
}
