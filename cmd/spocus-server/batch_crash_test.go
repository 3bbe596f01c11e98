package main

// The acceptance test of batch atomicity: sessions are driven with
// fixed-size batched inputs (one-session POST /batch envelopes),
// the server is SIGKILLed mid-load, and after restart every session's
// recovered step count must be a whole number of batches — a batch is one
// CRC-framed WAL record, so a crash can drop an unacked batch entirely but
// can never leave a partial suffix of one. Acked batches (-fsync always)
// must survive whole.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

func TestCrashBatchAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := buildServer(t)
	dir := t.TempDir()

	const (
		nSessions = 6
		batch     = 3
	)
	cmd, base := startServer(t, bin, dir,
		"-wal-segment-bytes", "4096", "-snapshot-every", "1024")
	for i := 0; i < nSessions; i++ {
		post(t, base+"/sessions", map[string]string{"model": "short", "id": fmt.Sprintf("ba-%d", i)}, nil)
	}

	// Each goroutine advances one session in whole batches of `batch` steps.
	// acked[i] counts steps of batches whose every item answered 2xx — the
	// durable promise. A shard-level 429 (too many callers waiting for the
	// shard's lock) fails the whole group, so retrying the whole batch
	// preserves step order.
	var acked [nSessions]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("ba-%d", i)
			for j := 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				items := make([]map[string]any, batch)
				for k := range items {
					items[k] = map[string]any{"session": id, "input": shopStep(i, j+k)}
				}
				data, _ := json.Marshal(map[string]any{"steps": items})
				resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(data))
				if err != nil {
					return // the kill severed the connection
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					return
				}
				var br session.BatchResponse
				derr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if derr != nil || len(br.Results) != batch {
					return // response torn by the kill
				}
				shed := false
				for _, r := range br.Results {
					if r.Status == http.StatusTooManyRequests {
						shed = true
						break
					}
					if r.Status/100 != 2 {
						return
					}
				}
				if shed {
					continue // whole group rejected; retry at the same j
				}
				acked[i].Add(batch)
				j += batch
			}
		}(i)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var total int64
		for i := range acked {
			total += acked[i].Load()
		}
		if total >= 12*batch*nSessions || time.Now().After(deadline) {
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
		id := fmt.Sprintf("ba-%d", i)
		lr := getLog(t, base2, id)
		n := acked[i].Load()
		if testFsync() == "always" && int64(lr.Steps) < n {
			t.Errorf("%s: recovered %d steps but %d were acked before the kill", id, lr.Steps, n)
		}
		// Atomicity under ANY fsync policy: a batch is one WAL record, so
		// recovery sees whole batches or nothing — never a partial suffix.
		if lr.Steps%batch != 0 {
			t.Errorf("%s: recovered %d steps — not a whole number of %d-step batches", id, lr.Steps, batch)
		}
		// And the surviving prefix replays identically in-process.
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
