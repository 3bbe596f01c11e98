package main

// The acceptance test of the in-place upgrade from a JSON-codec server: the
// binary server starts on a copy of a directory the JSON-codec parent wrote
// (a JSON snapshot and JSON WAL records), takes traffic, is SIGKILLed
// mid-traffic, and recovers. The final engine replays a JSON snapshot under
// a WAL that mixes both formats, and the fixture's sessions and every step
// acked on top of them must survive with logs identical to the
// deterministic oracle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// parentJSONDir is the engine directory the JSON-codec parent wrote: session
// m1 (SHORT, the Figure 1 inputs) and n1 (the marketplace network on its
// widget script), snapshotted mid-run, then a WAL tail.
var parentJSONDir = filepath.Join("..", "..", "internal", "session", "testdata", "parent_engine_json")

// copyDir copies a directory tree; recovery appends, so tests work on a copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// driveUntilKill steps every session concurrently (continuing each one's
// deterministic script at start[i]) until each has at least perSession
// newly acked steps, then SIGKILLs the server mid-traffic and returns the
// per-session acked totals (start + new).
func driveUntilKill(t *testing.T, cmd interface{ Kill() error }, base string, start []int64, perSession int64) []int64 {
	t.Helper()
	n := len(start)
	acked := make([]atomic.Int64, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/sessions/up-%d/input", base, i)
			for j := start[i]; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				data, _ := json.Marshal(map[string]any{"input": shopStep(i, int(j))})
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
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for i := range acked {
			if acked[i].Load() < perSession {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Kill(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	totals := make([]int64, n)
	for i := range acked {
		totals[i] = start[i] + acked[i].Load()
	}
	return totals
}

func TestCrashMixedCodecUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()
	copyDir(t, parentJSONDir, dir)
	const nSessions = 4

	// The fixture's sessions, each stepped once more on the binary server.
	m1In := append(models.Fig1Inputs(), relation.NewInstance())
	m1In[3].Add("order", relation.Tuple{"newsweek"})
	n1In := append(models.NetworkScript("marketplace", "widget"), compose.StepInputs{})

	// Snapshots stay off so the recovery below reads the parent's JSON
	// snapshot and replays the raw mixed WAL on top of it.
	cmd, base := startServer(t, bin, dir, "-shards", "1", "-snapshot-every", "-1")
	if m1, n1 := getLog(t, base, "m1"), getLog(t, base, "n1"); m1.Steps != 3 || n1.Steps != 7 {
		t.Fatalf("fixture recovered with m1 %d steps, n1 %d, want 3 and 7", m1.Steps, n1.Steps)
	}
	post(t, base+"/sessions/m1/input", map[string]any{"input": m1In[3]}, nil)
	post(t, base+"/sessions/n1/input", map[string]any{"inputs": n1In[7]}, nil)
	for i := 0; i < nSessions; i++ {
		var info session.Info
		post(t, base+"/sessions", map[string]string{"model": "short", "id": fmt.Sprintf("up-%d", i)}, &info)
	}
	acked := driveUntilKill(t, cmd.Process, base, make([]int64, nSessions), 6)
	cmd.Wait()

	_, base2 := startServer(t, bin, dir, "-shards", "1", "-snapshot-every", "-1")
	ref, err := models.Short().Execute(models.MagazineDB(), m1In)
	if err != nil {
		t.Fatal(err)
	}
	if lr := getLog(t, base2, "m1"); lr.Steps != len(m1In) || !lr.Log.Equal(ref.Logs) {
		t.Errorf("m1: recovered %d steps %s, want %d %s", lr.Steps, lr.Log, len(m1In), ref.Logs)
	}
	nw, err := models.Network("marketplace").Build(models.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	var joint []session.JointLogEntry
	for _, ext := range n1In {
		js := nw.StepOnce(ext)
		joint = append(joint, session.JointLogEntry{Logs: js.Logs, Wire: js.Wire})
	}
	if lr := getLog(t, base2, "n1"); lr.Steps != len(n1In) || session.JointLogDigest(lr.Joint) != session.JointLogDigest(joint) {
		t.Errorf("n1: recovered %d joint steps, want %d matching the oracle", lr.Steps, len(n1In))
	}
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("up-%d", i)
		lr := getLog(t, base2, id)
		if testFsync() == "always" && int64(lr.Steps) < acked[i] {
			t.Errorf("%s: recovered %d steps but %d were acked", id, lr.Steps, acked[i])
		}
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
		// The upgraded server keeps serving: one more step lands cleanly.
		var res session.StepResult
		post(t, fmt.Sprintf("%s/sessions/%s/input", base2, id), map[string]any{"input": shopStep(i, lr.Steps)}, &res)
		if res.Seq != lr.Steps+1 {
			t.Errorf("%s: step after mixed recovery got seq %d, want %d", id, res.Seq, lr.Steps+1)
		}
	}
}
