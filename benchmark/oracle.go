package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// The correctness gate. A Spocus log is a function of the input sequence,
// so for every checked session the served log must equal
// core.Machine.Execute over exactly the inputs that were acked — before and
// after the crash-image recovery — and a keyed step sent twice must not
// apply twice. Every check is one operation attempted; every mismatch one
// failed.

// oracleSample is how many sessions are replayed through the oracle when a
// workload has more (replaying them all would cost as much as the run).
const oracleSample = 64

// verdict is what the gate found.
type verdict struct {
	logRead    []time.Duration
	recoverS   float64
	recovered  bool
	replayMS   float64
	replayRecs int64
	snapshotMS float64
	// snapshotBytes is what the explicit end-of-run snapshot wrote.
	snapshotBytes int64
}

// ackedInputs is the session's script without the positions that failed.
func (s *sess) ackedInputs() relation.Sequence {
	skip := make(map[int]bool, len(s.failed))
	for _, j := range s.failed {
		skip[j] = true
	}
	seq := make(relation.Sequence, 0, len(s.inputs))
	for j, in := range s.inputs {
		if !skip[j] {
			seq = append(seq, in)
		}
	}
	return seq
}

// oracle runs the reference semantics over the sampled sessions' acked
// inputs, two at a time.
func (f *fixture) oracle(idx []int) map[int]relation.Sequence {
	out := make(map[int]relation.Sequence, len(idx))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := f.plan.sessions[i]
				run, err := models.Get(s.model).Execute(s.db, s.ackedInputs())
				if err != nil {
					// The session has no reference log, so its check fails.
					f.note("oracle %s: %v", s.id, err)
					continue
				}
				mu.Lock()
				out[i] = run.Logs
				mu.Unlock()
			}
		}()
	}
	for _, i := range idx {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// servedLog reads a session's log the way a client would.
func (f *fixture) servedLog(id string) (*session.LogResult, error) {
	if f.cl == nil {
		return f.eng.Log(id)
	}
	var lr session.LogResult
	err := f.cl.client.GetJSON(context.Background(), f.cl.url+"/sessions/"+id+"/log", &lr)
	return &lr, err
}

// check runs the gate on a quiescent fixture.
func (f *fixture) check() *verdict {
	v := &verdict{}
	f.retryKeyed()

	idx := sample(f.p.seed, len(f.plan.sessions), oracleSample)
	want := f.oracle(idx)
	for _, i := range idx {
		s := f.plan.sessions[i]
		t0 := time.Now()
		lr, err := f.servedLog(s.id)
		v.logRead = append(v.logRead, time.Since(t0))
		ref, ok := want[i]
		if f.expect(err == nil, "log %s: %v", s.id, err) {
			f.expect(ok && lr.Steps == s.acked && lr.Log.Equal(ref),
				"log %s: served %d steps, acked %d, does not match the oracle", s.id, lr.Steps, s.acked)
		}
	}
	if f.w.durable {
		f.recover(v, want)
	}
	return v
}

// retryKeyed re-sends each client's last keyed batch. Every item must come
// back as a duplicate of the step it already produced; the oracle match
// that follows would expose any that applied twice.
func (f *fixture) retryKeyed() {
	for c := range f.plan.ops {
		var last *op
		for i := len(f.plan.ops[c]) - 1; i >= 0 && last == nil; i-- {
			if o := &f.plan.ops[c][i]; o.kind == opBatch {
				last = o
			}
		}
		if last == nil {
			continue
		}
		dup := make([]bool, len(last.items))
		if f.cl == nil {
			for k, r := range f.eng.InputBatch(last.items) {
				dup[k] = r.Err == nil && r.Result.Duplicate
			}
		} else {
			var resp session.BatchResponse
			err := f.cl.client.PostJSON(context.Background(), f.cl.url+"/batch",
				session.BatchRequest{Steps: last.items, Results: "status"}, &resp, nil)
			for k := range resp.Results {
				r := resp.Results[k]
				dup[k] = err == nil && r.Status == 200 && r.Result != nil && r.Result.Duplicate
			}
		}
		for k := range dup {
			f.expect(dup[k], "keyed retry %s/%s was not answered as a duplicate", last.items[k].Session, last.items[k].Key)
		}
	}
}

// recover copies the quiescent engine's directory — the crash image — and
// times a fresh engine on the copy until every session's log has been read
// back and matched and one new step has acked. Under FsyncAlways every
// acked byte was flushed, so the copy is what a power cut would leave;
// under FsyncNever it is the kill -9 image with the OS cache intact.
func (f *fixture) recover(v *verdict, want map[int]relation.Sequence) {
	// What the live engine serves now, for every session: recovery must
	// reproduce all of it, and the oracle has vouched for the sample.
	served := make([]relation.Sequence, len(f.plan.sessions))
	for i, s := range f.plan.sessions {
		lr, err := f.eng.Log(s.id)
		if !f.expect(err == nil, "log %s: %v", s.id, err) {
			return
		}
		served[i] = lr.Log
	}
	image := filepath.Join(f.dir, "image")
	if err := copyTree(filepath.Join(f.dir, "data"), image); !f.expect(err == nil, "crash image: %v", err) {
		return
	}
	defer os.RemoveAll(image)

	t0 := time.Now()
	id := f.tr.begin("session.NewEngine", 0, 0)
	eng, err := session.NewEngine(f.w.cfg(image))
	f.tr.end(id)
	if !f.expect(err == nil, "recover: %v", err) {
		return
	}
	for i, s := range f.plan.sessions {
		lr, err := eng.Log(s.id)
		if !f.expect(err == nil && lr.Steps == s.acked && lr.Log.Equal(served[i]),
			"recovered log %s differs from the served one (err %v)", s.id, err) {
			continue
		}
		if ref, ok := want[i]; ok {
			f.expect(lr.Log.Equal(ref), "recovered log %s differs from the oracle", s.id)
		}
	}
	s0 := f.plan.sessions[0]
	res, err := eng.Input(s0.id, s0.inputs[0])
	f.expect(err == nil && res.Seq == s0.acked+1, "first step after recovery on %s: %v", s0.id, err)
	v.recoverS = time.Since(t0).Seconds()
	v.recovered = true
	st := eng.Stats()
	v.replayMS, v.replayRecs = st.ReplayMillis, st.ReplayRecords
	eng.Shutdown()

	before := f.eng.Stats().SnapshotBytesTotal
	t0 = time.Now()
	err = f.eng.Snapshot()
	f.expect(err == nil, "snapshot: %v", err)
	v.snapshotMS = float64(time.Since(t0)) / 1e6
	v.snapshotBytes = f.eng.Stats().SnapshotBytesTotal - before
}

// copyTree copies a directory of regular files and directories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
