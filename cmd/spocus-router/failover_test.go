package main

// The acceptance test of the cluster layer: three real spocus-server
// processes behind a real spocus-router process, concurrent scripted load,
// SIGKILL of one backend mid-load, recovery, and handoffs of a recovered
// and of a live session — after all of which every session's log served
// through the router must be byte-identical to a single-node oracle run of
// the same input sequence.
//
// Sessions owned by the victim are quiescent at the instant of the kill
// (their acked prefix is exact); sessions on the survivors keep stepping
// throughout. An input in flight to a dying server can be applied-and-
// fsynced but unacknowledged, in which case no client can know whether to
// resend — byte-exactness is only falsifiable for acked prefixes, which is
// precisely the consistency unit DESIGN §6 promises.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// build compiles a package in this module once per test into dir.
func build(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startProc launches bin with args and waits for its "listening on
// http://ADDR" line, returning the process and base URL.
func startProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before listening", filepath.Base(bin))
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				url := strings.TrimSpace(line[i+len("listening on "):])
				if j := strings.Index(url, " "); j >= 0 {
					url = url[:j]
				}
				go func() { // keep draining so the child never blocks on stdout
					for range lines {
					}
				}()
				return cmd, url
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s to listen", filepath.Base(bin))
		}
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0 // transport error: caller decides
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getStatus(url string, out any) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// The deterministic per-session script: order a magazine, pay it on the
// next step, moving through the Figure 1 catalogue.
var mags = []struct{ name, price string }{
	{"time", "855"}, {"newsweek", "845"}, {"le-monde", "8350"},
}

func scriptInput(i, j int) relation.Instance {
	m := mags[(i+j/2)%len(mags)]
	in := relation.NewInstance()
	if j%2 == 0 {
		in.Add("order", relation.Tuple{relation.Const(m.name)})
	} else {
		in.Add("pay", relation.Tuple{relation.Const(m.name), relation.Const(m.price)})
	}
	return in
}

// oracleLogs computes the single-node reference log for session i over
// steps [0, n).
func oracleLogs(t *testing.T, i, n int) relation.Sequence {
	t.Helper()
	seq := make(relation.Sequence, n)
	for j := 0; j < n; j++ {
		seq[j] = scriptInput(i, j)
	}
	run, err := models.Short().Execute(models.MagazineDB(), seq)
	if err != nil {
		t.Fatalf("oracle run for session %d: %v", i, err)
	}
	return run.Logs
}

// driveSteps feeds session id steps [from, to) through base, retrying
// transient refusals (429 backpressure, 503 handoff freeze).
func driveSteps(t *testing.T, base, id string, i, from, to int) error {
	for j := from; j < to; j++ {
		in := scriptInput(i, j)
		var st int
		for attempt := 0; attempt < 8; attempt++ {
			var res session.StepResult
			st = postJSON(t, fmt.Sprintf("%s/sessions/%s/input", base, id), map[string]any{"input": in}, &res)
			if st/100 == 2 {
				if res.Seq != j+1 {
					return fmt.Errorf("session %s step %d: seq %d", id, j+1, res.Seq)
				}
				break
			}
			if st != http.StatusTooManyRequests && st != http.StatusServiceUnavailable {
				return fmt.Errorf("session %s step %d: status %d", id, j+1, st)
			}
			time.Sleep(time.Duration(10<<attempt) * time.Millisecond)
		}
		if st/100 != 2 {
			return fmt.Errorf("session %s step %d: gave up at status %d", id, j+1, st)
		}
	}
	return nil
}

// TestClusterFailover is the acceptance scenario of ISSUE 3: 3 backends
// behind a router under concurrent scripted load; SIGKILL one backend;
// after recovery and a handoff every session's log through the router is
// byte-identical to the single-node oracle, and /debug/shards reflects
// the new ring.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bins := t.TempDir()
	serverBin := build(t, bins, "spocus-server", "repro/cmd/spocus-server")
	routerBin := build(t, bins, "spocus-router", "repro/cmd/spocus-router")

	// Boot 3 durable backends and the router with fast health probing.
	const nBackends = 3
	procs := make([]*exec.Cmd, nBackends)
	urls := make([]string, nBackends)
	dirs := make([]string, nBackends)
	for b := 0; b < nBackends; b++ {
		dirs[b] = t.TempDir()
		procs[b], urls[b] = startProc(t, serverBin, "serve", "-addr", "127.0.0.1:0", "-dir", dirs[b], "-fsync", "always")
	}
	_, router := startProc(t, routerBin,
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","),
		"-health-interval", "100ms", "-health-timeout", "500ms",
		"-health-fail-after", "2", "-health-max-backoff", "500ms")

	// Open sessions through the router with the oracle's database.
	const nSessions, nSteps = 18, 30
	db := models.MagazineDB()
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("clu-%02d", i)
		st := postJSON(t, router+"/sessions", map[string]any{"id": ids[i], "model": "short", "db": db}, nil)
		if st != http.StatusCreated {
			t.Fatalf("open %s: status %d", ids[i], st)
		}
	}

	// Find each session's home by asking the backends directly.
	owner := make(map[string]int)
	for i, id := range ids {
		homes := 0
		for b, u := range urls {
			if getStatus(u+"/sessions/"+id, nil) == http.StatusOK {
				owner[id] = b
				homes++
			}
		}
		if homes != 1 {
			t.Fatalf("session %s has %d homes", ids[i], homes)
		}
	}
	victim := owner[ids[0]]
	var victimSessions, survivorSessions []int
	for i, id := range ids {
		if owner[id] == victim {
			victimSessions = append(victimSessions, i)
		} else {
			survivorSessions = append(survivorSessions, i)
		}
	}
	if len(survivorSessions) == 0 {
		t.Fatal("all sessions on one backend; test is vacuous")
	}
	t.Logf("victim backend %d owns %d/%d sessions", victim, len(victimSessions), nSessions)

	drivePhase := func(sessions []int, from, to int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, len(sessions))
		for _, i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := driveSteps(t, router, ids[i], i, from, to); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// Phase 1: everyone steps to 10, concurrently, all acked.
	drivePhase(allOf(nSessions), 0, 10)

	// Phase 2: survivors keep stepping while the victim is SIGKILLed.
	var wg sync.WaitGroup
	phase2Errs := make(chan error, len(survivorSessions))
	for _, i := range survivorSessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := driveSteps(t, router, ids[i], i, 10, 20); err != nil {
				phase2Errs <- err
			}
		}(i)
	}
	if err := procs[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].Wait()

	// The router ejects the dead backend from the ring.
	waitRing(t, router, urls[victim], false)

	// A victim session is refused (503 — its owner is down, the key is
	// unroutable, never re-homed), never served.
	if st := getStatus(router+"/sessions/"+ids[victimSessions[0]]+"/log", nil); st/100 == 2 {
		t.Fatalf("victim session served while its backend is dead (status %d)", st)
	}
	wg.Wait()
	close(phase2Errs)
	for err := range phase2Errs {
		t.Fatal(err)
	}

	// Recovery: restart the victim on its WAL directory and address.
	addr := strings.TrimPrefix(urls[victim], "http://")
	procs[victim], _ = startProc(t, serverBin, "serve", "-addr", addr, "-dir", dirs[victim], "-fsync", "always")
	waitRing(t, router, urls[victim], true)

	// Phase 3: everyone finishes to 30 steps, concurrently.
	var wg3 sync.WaitGroup
	phase3Errs := make(chan error, nSessions)
	for _, i := range victimSessions {
		wg3.Add(1)
		go func(i int) {
			defer wg3.Done()
			phase3Errs <- driveSteps(t, router, ids[i], i, 10, 30)
		}(i)
	}
	for _, i := range survivorSessions {
		wg3.Add(1)
		go func(i int) {
			defer wg3.Done()
			phase3Errs <- driveSteps(t, router, ids[i], i, 20, 30)
		}(i)
	}
	wg3.Wait()
	close(phase3Errs)
	for err := range phase3Errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every session's log through the router is byte-identical to the
	// single-node oracle.
	for i, id := range ids {
		assertOracleLog(t, router, id, i, nSteps)
	}

	// Handoffs: the state image moves, digest-verified on the target, and
	// must leave the log through the router byte-identical to the oracle —
	// state image + log is the session, and this is where that's proved
	// across real processes.
	handoff := func(idx int, target string) {
		t.Helper()
		id := ids[idx]
		src := urls[owner[id]]
		var hres struct {
			From  string `json:"from"`
			To    string `json:"to"`
			Steps int    `json:"steps"`
		}
		st := postJSON(t, fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", router, id, target), nil, &hres)
		if st != http.StatusOK || hres.From != src || hres.To != target || hres.Steps != nSteps {
			t.Fatalf("handoff %s: status %d, %+v", id, st, hres)
		}
		var shards struct {
			Pins map[string]string `json:"pins"`
		}
		if st := getStatus(router+"/debug/shards", &shards); st != http.StatusOK || shards.Pins[id] != target {
			t.Fatalf("/debug/shards does not show the pin: status %d, %v", st, shards.Pins)
		}
		if st := getStatus(src+"/sessions/"+id, nil); st != http.StatusNotFound {
			t.Fatalf("source still owns the handed-off session: status %d", st)
		}
		assertOracleLog(t, router, id, idx, nSteps)
	}

	// Ship a recovered session off the victim; it must keep serving after
	// its old home dies for good below.
	moved := ids[victimSessions[0]]
	movedIdx := victimSessions[0]
	handoff(movedIdx, urls[(victim+1)%nBackends])

	// Move a survivor session (never recovered: its state was built live)
	// to the backend that is neither its owner nor the victim, so the
	// upcoming kill cannot touch it.
	liveIdx := survivorSessions[0]
	handoff(liveIdx, urls[3-owner[ids[liveIdx]]-victim])

	if err := procs[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].Wait()
	waitRing(t, router, urls[victim], false)

	// The handed-off session survives its old home's death: one more step
	// through the router, and the log still matches the oracle.
	if err := driveSteps(t, router, moved, movedIdx, nSteps, nSteps+1); err != nil {
		t.Fatal(err)
	}
	assertOracleLog(t, router, moved, movedIdx, nSteps+1)
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// waitRing polls /debug/shards until backend `addr` has health `up`.
func waitRing(t *testing.T, router, addr string, up bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var shards struct {
			Members []struct {
				Addr string `json:"addr"`
				Up   bool   `json:"up"`
			} `json:"members"`
		}
		if getStatus(router+"/debug/shards", &shards) == http.StatusOK {
			for _, m := range shards.Members {
				if m.Addr == addr && m.Up == up {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never showed %s up=%v", addr, up)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// assertOracleLog fetches session id's log through the router and compares
// it — semantically and byte-for-byte — with the oracle run.
func assertOracleLog(t *testing.T, router, id string, i, steps int) {
	t.Helper()
	var lr session.LogResult
	if st := getStatus(fmt.Sprintf("%s/sessions/%s/log", router, id), &lr); st != http.StatusOK {
		t.Fatalf("log %s: status %d", id, st)
	}
	want := oracleLogs(t, i, steps)
	if lr.Steps != steps || !lr.Log.Equal(want) {
		t.Fatalf("session %s log differs from oracle:\n got %s\nwant %s", id, lr.Log, want)
	}
	got, err := json.Marshal(lr.Log)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("session %s log not byte-identical to oracle:\n got %s\nwant %s", id, got, ref)
	}
}
