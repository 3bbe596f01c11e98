package main

// The network counterpart of crash_test.go: concurrent NETWORK sessions —
// each a whole customer/supplier/shipper marketplace — are stepped through
// a real server process that is SIGKILLed mid-batch. Every acked joint
// step must survive recovery under -fsync always, and every recovered
// joint log must be byte-identical to the compose oracle run over the same
// external stimulus: the one-WAL-record-per-joint-step design either
// persists a whole network step or none of it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/models"
	"repro/internal/session"
)

// netStep is the deterministic external stimulus of joint step j for
// network session i: the canonical marketplace conversation, cycled with a
// rotating product.
func netStep(i, j int) compose.StepInputs {
	products := models.NetProducts()
	period := len(models.NetworkScript("marketplace", products[0]))
	product := products[(i+j/period)%len(products)]
	return models.NetworkScript("marketplace", product)[j%period]
}

// netOracle replays steps joint steps of network session i in-process with
// compose.Network — the ground truth the recovered joint log must equal.
func netOracle(t *testing.T, i, steps int) []session.JointLogEntry {
	t.Helper()
	nw, err := models.Network("marketplace").Build(models.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	joint := make([]session.JointLogEntry, 0, steps)
	for j := 0; j < steps; j++ {
		js := nw.StepOnce(netStep(i, j))
		joint = append(joint, session.JointLogEntry{Logs: js.Logs, Wire: js.Wire})
	}
	return joint
}

// TestCrashNetworkSessions: SIGKILL a server running concurrent network
// sessions under group commit; after restart every acked joint step is
// present and the joint logs match the oracle bit-for-bit.
func TestCrashNetworkSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()

	const nSessions = 6
	cmd, base := startServer(t, bin, dir,
		"-wal-segment-bytes", "4096", "-snapshot-every", "32")
	for i := 0; i < nSessions; i++ {
		var info session.Info
		post(t, base+"/sessions", map[string]any{
			"id":      fmt.Sprintf("net-%d", i),
			"network": models.Network("marketplace"),
		}, &info)
		if !info.Network || len(info.Nodes) != 3 {
			t.Fatalf("open network: info %+v", info)
		}
	}

	// acked[i] counts joint steps whose 2xx response arrived — under
	// -fsync always, each was durable (one WAL record per joint step)
	// before its ack.
	var acked [nSessions]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/sessions/net-%d/input", base, i)
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				data, _ := json.Marshal(map[string]any{"inputs": netStep(i, j)})
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
		id := fmt.Sprintf("net-%d", i)
		lr := getLog(t, base2, id)
		n := acked[i].Load()
		if testFsync() == "always" && int64(lr.Steps) < n {
			t.Errorf("%s: recovered %d joint steps but %d were acked before the kill", id, lr.Steps, n)
		}
		if len(lr.Joint) != lr.Steps {
			t.Errorf("%s: joint log has %d entries for %d steps", id, len(lr.Joint), lr.Steps)
			continue
		}
		want := netOracle(t, i, lr.Steps)
		got, err := json.Marshal(lr.Joint)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("%s: recovered joint log diverges from the compose oracle at %d steps", id, lr.Steps)
		}
	}

	// The revived networks keep stepping: one more joint step each, with
	// the delay buffer intact (seq continues, no error).
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("net-%d", i)
		lr := getLog(t, base2, id)
		var res session.StepResult
		post(t, fmt.Sprintf("%s/sessions/%s/input", base2, id), map[string]any{"inputs": netStep(i, lr.Steps)}, &res)
		if res.Seq != lr.Steps+1 {
			t.Errorf("%s: post-recovery joint step got seq %d, want %d", id, res.Seq, lr.Steps+1)
		}
	}
}
