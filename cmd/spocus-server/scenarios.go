package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/wire"
)

// bench -scenarios: run a scenario fleet (the builtin one or a JSON file)
// twice per scenario — against an in-process engine, and over HTTP through
// a real consistent-hash router fronting in-process backends on loopback
// TCP — and report throughput plus step-latency percentiles for both
// paths. The committed BENCH_scenarios.json is this subcommand's output
// for the builtin fleet.

// pathReport is one serving path's numbers for one scenario.
type pathReport struct {
	Path        string       `json:"path"` // "inproc" | "router"
	Backends    int          `json:"backends,omitempty"`
	StepsTotal  int          `json:"steps_total"`
	ElapsedSec  float64      `json:"elapsed_s"`
	StepsPerSec float64      `json:"steps_per_sec"`
	OpenSec     float64      `json:"open_s"`
	Retried429  int64        `json:"retried_429,omitempty"`
	Latency     latQuantiles `json:"step_latency"`
}

// scenarioReport is one scenario's entry in the fleet report.
type scenarioReport struct {
	Scenario        string       `json:"scenario"`
	Info            string       `json:"info,omitempty"`
	Arrival         string       `json:"arrival"`
	RatePerSec      float64      `json:"rate,omitempty"`
	Sessions        int          `json:"sessions"`
	NetworkSessions int          `json:"network_sessions"`
	StepsPerSess    int          `json:"steps_per_session"`
	Paths           []pathReport `json:"paths"`
}

// scenarioTarget abstracts the serving path for one planned session.
type scenarioTarget interface {
	open(p *scenario.SessionPlan) error
	step(p *scenario.SessionPlan, j int) error
	retried() int64
}

// scenarioEngineTarget drives the in-process engine, retrying overload (too
// many callers waiting on a shard's lock) and rate-limit shedding with
// backoff (the scenario bench measures goodput).
type scenarioEngineTarget struct {
	eng *session.Engine
	mu  sync.Mutex
	n   int64
}

func (t *scenarioEngineTarget) withRetry(f func() error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		var over *session.OverloadedError
		var limited *session.RateLimitedError
		if !errors.As(err, &over) && !errors.As(err, &limited) {
			return err
		}
		t.mu.Lock()
		t.n++
		t.mu.Unlock()
		time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
	}
	return err
}

func (t *scenarioEngineTarget) open(p *scenario.SessionPlan) error {
	return t.withRetry(func() error {
		req := &session.OpenRequest{ID: p.ID, Model: p.Model, DB: p.DB, Network: p.Network}
		_, err := t.eng.Open(req)
		return err
	})
}

func (t *scenarioEngineTarget) step(p *scenario.SessionPlan, j int) error {
	return t.withRetry(func() error {
		var err error
		if p.IsNetwork() {
			_, err = t.eng.NetInput(p.ID, p.NetInput(j))
		} else {
			_, err = t.eng.Input(p.ID, p.Input(j))
		}
		return err
	})
}

func (t *scenarioEngineTarget) retried() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// scenarioHTTPTarget drives a base URL (a backend, or a router fronting
// several) through the wire API, reusing httpTarget's 429/503 retry.
type scenarioHTTPTarget struct {
	*httpTarget
}

func (t *scenarioHTTPTarget) open(p *scenario.SessionPlan) error {
	body := map[string]any{"id": p.ID}
	if p.IsNetwork() {
		body["network"] = p.Network
	} else {
		body["model"] = p.Model
		body["db"] = p.DB
	}
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions", body, nil)
	})
}

func (t *scenarioHTTPTarget) step(p *scenario.SessionPlan, j int) error {
	var body map[string]any
	if p.IsNetwork() {
		body = map[string]any{"inputs": p.NetInput(j)}
	} else {
		body = map[string]any{"input": p.Input(j)}
	}
	return t.withRetry(func() error {
		return t.post(t.base+"/sessions/"+p.ID+"/input", body, nil)
	})
}

func (t *scenarioHTTPTarget) retried() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

// runScenarioPath opens every planned session on target, then drives them
// concurrently: closed loop starts everyone at once, open arrival delays
// session i's stepping by spec.StartOffset(i).
func runScenarioPath(sp *scenario.Spec, plans []*scenario.SessionPlan, target scenarioTarget, path string) pathReport {
	openStart := time.Now()
	for _, p := range plans {
		if err := target.open(p); err != nil {
			fatal(fmt.Errorf("scenario %s: open %s: %w", sp.Name, p.ID, err))
		}
	}
	openElapsed := time.Since(openStart)

	lats := make([][]time.Duration, len(plans))
	errs := make(chan error, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p *scenario.SessionPlan) {
			defer wg.Done()
			if off := sp.StartOffset(i); off > 0 {
				time.Sleep(time.Until(start.Add(off)))
			}
			lat := make([]time.Duration, 0, p.Steps)
			for j := 0; j < p.Steps; j++ {
				t0 := time.Now()
				if err := target.step(p, j); err != nil {
					errs <- fmt.Errorf("scenario %s: %s step %d: %w", sp.Name, p.ID, j+1, err)
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[i] = lat
		}(i, p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		fatal(err)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return pathReport{
		Path:        path,
		StepsTotal:  len(all),
		ElapsedSec:  elapsed.Seconds(),
		StepsPerSec: float64(len(all)) / elapsed.Seconds(),
		OpenSec:     openElapsed.Seconds(),
		Retried429:  target.retried(),
		Latency:     latPercentiles(all),
	}
}

// backendServer is one in-process spocus-server on a loopback listener.
type backendServer struct {
	eng      *session.Engine
	url      string
	closeSrv func()
}

func startBackend(cfg session.Config) (*backendServer, error) {
	eng, err := session.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	url, closeSrv, err := serveEngine(eng)
	if err != nil {
		eng.Shutdown()
		return nil, err
	}
	return &backendServer{eng: eng, url: url, closeSrv: closeSrv}, nil
}

func (b *backendServer) stop() {
	b.closeSrv()
	b.eng.Shutdown()
}

// benchScenarios runs the fleet: for each scenario, once in-process and
// once through a router over real loopback TCP, on fresh engines each
// time so no scenario warms another's caches or WAL.
func benchScenarios(cfg session.Config, src string, nBackends int) {
	var fleet []*scenario.Spec
	if src == "builtin" {
		fleet = scenario.Fleet()
	} else {
		data, err := os.ReadFile(src)
		if err != nil {
			fatal(err)
		}
		if fleet, err = scenario.ParseFleet(data); err != nil {
			fatal(err)
		}
	}
	if nBackends < 1 {
		fatal(fmt.Errorf("bench: -scenario-backends must be >= 1"))
	}
	dirFor := func(parts ...string) string {
		if cfg.Dir == "" {
			return ""
		}
		return filepath.Join(append([]string{cfg.Dir}, parts...)...)
	}

	var results []scenarioReport
	for _, sp := range fleet {
		plans, err := sp.Plan("sc")
		if err != nil {
			fatal(err)
		}
		rep := scenarioReport{
			Scenario:     sp.Name,
			Info:         sp.Info,
			Arrival:      sp.Arrival,
			RatePerSec:   sp.Rate,
			Sessions:     len(plans),
			StepsPerSess: sp.Steps,
		}
		if rep.Arrival == "" {
			rep.Arrival = scenario.Closed
		}
		for _, p := range plans {
			if p.IsNetwork() {
				rep.NetworkSessions++
			}
		}

		// In-process path.
		ecfg := cfg
		ecfg.Dir = dirFor(sp.Name, "inproc")
		eng, err := session.NewEngine(ecfg)
		if err != nil {
			fatal(err)
		}
		rep.Paths = append(rep.Paths, runScenarioPath(sp, plans, &scenarioEngineTarget{eng: eng}, "inproc"))
		eng.Shutdown()

		// Router path: fresh backends, fresh router, fresh plans (the
		// session IDs are the same; the engines are not).
		var backends []*backendServer
		var urls []string
		for b := 0; b < nBackends; b++ {
			bcfg := cfg
			bcfg.Dir = dirFor(sp.Name, fmt.Sprintf("backend-%d", b))
			bs, err := startBackend(bcfg)
			if err != nil {
				fatal(err)
			}
			backends = append(backends, bs)
			urls = append(urls, bs.url)
		}
		rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: urls})
		if err != nil {
			fatal(err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		rsrv := &http.Server{Handler: rt.Handler()}
		go rsrv.Serve(rln)

		ht := &scenarioHTTPTarget{httpTarget: &httpTarget{
			base: "http://" + rln.Addr().String(),
			client: wire.New(wire.Config{
				Name:                "scenario-client",
				Timeout:             60 * time.Second,
				MaxIdleConns:        len(plans) + 16,
				MaxIdleConnsPerHost: len(plans) + 16,
			}),
		}}
		pr := runScenarioPath(sp, plans, ht, "router")
		ht.client.Close()
		pr.Backends = nBackends
		rep.Paths = append(rep.Paths, pr)

		rsrv.Close()
		rt.Close()
		for _, bs := range backends {
			bs.stop()
		}
		results = append(results, rep)
	}
	emit(results)
}
