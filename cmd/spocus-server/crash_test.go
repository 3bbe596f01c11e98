package main

// The acceptance test of the serving layer: a real spocus-server process is
// killed with SIGKILL mid-session and restarted over the same durability
// directory; the recovered log must be byte-identical to an uncrashed run.

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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// shopStep is the Figure 1 shopping loop against the magazine database:
// order an item on even steps, pay for it on odd ones. Deterministic in
// (session index, step index), so an in-process oracle can replay any
// recovered prefix.
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

// buildServer compiles the server binary once per test run.
func buildServer(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "spocus-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// testFsync is the WAL policy the crash tests run under. CI's durability
// matrix overrides it to prove recovery holds under every policy; the
// byte-identical-prefix assertions are policy-independent — only the
// "every acked step survives" guarantee needs -fsync always.
func testFsync() string {
	if p := os.Getenv("SPOCUS_TEST_FSYNC"); p != "" {
		return p
	}
	return "always"
}

// startServer launches the binary and returns its base URL and process.
func startServer(t *testing.T, bin, dir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-dir", dir, "-fsync", testFsync()}, extra...)
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
	// The serve subcommand prints "spocus-server listening on http://ADDR".
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
				t.Fatal("server exited before listening")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				url := strings.TrimSpace(line[i+len("listening on "):])
				go func() { // keep draining so the child never blocks on stdout
					for range lines {
					}
				}()
				return cmd, url
			}
		case <-deadline:
			t.Fatal("timed out waiting for server to listen")
		}
	}
}

func post(t *testing.T, url string, body any, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getLog(t *testing.T, base, id string) *session.LogResult {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%s/log", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET log: status %d", resp.StatusCode)
	}
	var lr session.LogResult
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return &lr
}

// TestCrashRecovery drives the Figure 1 session of SHORT over HTTP, kills
// the server with SIGKILL after step 2, restarts it on the same directory,
// and checks the log is identical to the uncrashed reference run — then
// finishes the session and checks the complete log too.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()

	ref, err := models.Short().Execute(models.MagazineDB(), models.Fig1Inputs())
	if err != nil {
		t.Fatal(err)
	}
	inputs := models.Fig1Inputs()

	cmd, base := startServer(t, bin, dir)
	var info session.Info
	post(t, base+"/sessions", map[string]string{"model": "short", "id": "fig1"}, &info)
	for _, in := range inputs[:2] {
		var res session.StepResult
		post(t, fmt.Sprintf("%s/sessions/%s/input", base, info.ID), map[string]any{"input": in}, &res)
	}

	// kill -9 mid-run: no shutdown hook runs, no snapshot is taken.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, base2 := startServer(t, bin, dir)
	lr := getLog(t, base2, "fig1")
	// Under -fsync always both acked steps must survive; under interval or
	// never (CI's durability matrix) a kill -9 may lose a suffix, but the
	// recovered log must still be an exact prefix of the uncrashed run.
	if testFsync() == "always" && lr.Steps != 2 {
		t.Fatalf("recovered %d steps under -fsync always, want 2 (both were acked)", lr.Steps)
	}
	if lr.Steps > 2 || !lr.Log.Equal(ref.Logs[:lr.Steps]) {
		t.Fatalf("recovered log diverges from uncrashed run:\n got %s\nwant %s", lr.Log, relation.Sequence(ref.Logs[:2]))
	}

	// The revived session keeps serving: finish the Figure 1 run and
	// compare the complete log.
	for i, in := range inputs[lr.Steps:] {
		var res session.StepResult
		post(t, fmt.Sprintf("%s/sessions/fig1/input", base2), map[string]any{"input": in}, &res)
		if want := lr.Steps + i + 1; res.Seq != want {
			t.Errorf("step after recovery got seq %d, want %d", res.Seq, want)
		}
	}
	lr = getLog(t, base2, "fig1")
	if !lr.Log.Equal(ref.Logs) {
		t.Errorf("final log differs from uncrashed run:\n got %s\nwant %s", lr.Log, ref.Logs)
	}
}

// TestCrashGroupCommit is the acceptance test of group commit: many
// sessions step concurrently against a server batching their fsyncs
// (concurrent callers form real batches, small segments force rotation
// under load), the process is SIGKILLed mid-batch, and after restart every
// step that was acknowledged before the kill must be present — and every
// recovered log must be an exact prefix of the deterministic oracle run.
// This is exactly the guarantee group commit must not weaken: acks are
// released only after the shared fsync.
func TestCrashGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()

	const nSessions = 8
	cmd, base := startServer(t, bin, dir,
		"-wal-segment-bytes", "4096", "-snapshot-every", "64")
	for i := 0; i < nSessions; i++ {
		var info session.Info
		post(t, base+"/sessions", map[string]string{"model": "short", "id": fmt.Sprintf("gc-%d", i)}, &info)
	}

	// Drive all sessions concurrently so shards see adjacent appends to
	// batch. acked[i] counts steps whose 2xx response arrived — the durable
	// promise under -fsync always.
	var acked [nSessions]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/sessions/gc-%d/input", base, i)
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				data, _ := json.Marshal(map[string]any{"input": shopStep(i, j)})
				resp, err := http.Post(url, "application/json", bytes.NewReader(data))
				if err != nil {
					return // the kill severed the connection
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusTooManyRequests {
					j--
					continue
				}
				if code/100 != 2 {
					return
				}
				acked[i].Add(1)
			}
		}(i)
	}

	// Let real load build up, then kill -9 mid-batch: some steps are acked,
	// some are waiting for a shard's lock or on the shared fsync.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var total int64
		for i := range acked {
			total += acked[i].Load()
		}
		if total >= 10*nSessions || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	_, base2 := startServer(t, bin, dir)
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("gc-%d", i)
		lr := getLog(t, base2, id)
		n := acked[i].Load()
		if testFsync() == "always" && int64(lr.Steps) < n {
			t.Errorf("%s: recovered %d steps but %d were acked before the kill", id, lr.Steps, n)
		}
		// Determinism check against the oracle: replaying the same inputs
		// in-process must yield the identical log prefix, whatever survived.
		inputs := make(relation.Sequence, lr.Steps)
		for j := range inputs {
			inputs[j] = shopStep(i, j)
		}
		ref, err := models.Short().Execute(models.MagazineDB(), inputs)
		if err != nil {
			t.Fatalf("%s: oracle replay: %v", id, err)
		}
		if !lr.Log.Equal(ref.Logs) {
			t.Errorf("%s: recovered log diverges from oracle at %d steps", id, lr.Steps)
		}
	}
}

// TestServeGracefulShutdown checks SIGTERM snapshots state and a restart
// serves it back with an empty WAL replay.
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()

	cmd, base := startServer(t, bin, dir)
	var info session.Info
	post(t, base+"/sessions", map[string]string{"model": "auction", "id": "a1"}, &info)
	var res session.StepResult
	in := relation.NewInstance()
	in.Add("list", relation.Tuple{"clock"})
	post(t, base+"/sessions/a1/input", map[string]any{"input": in}, &res)
	if !res.Output.Has("ack", relation.Tuple{"clock"}) {
		t.Fatalf("auction ack missing: %s", res.Output)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v", err)
	}

	_, base2 := startServer(t, bin, dir)
	lr := getLog(t, base2, "a1")
	if lr.Steps != 1 || !lr.Log[0].Has("list", relation.Tuple{"clock"}) {
		t.Fatalf("restored auction log: %+v", lr)
	}
}
