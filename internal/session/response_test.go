package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

// randomScript draws steps over m's input schema: up to two tuples an
// input relation, of constants from its rules and db and two fresh ones.
func randomScript(rng *rand.Rand, m *core.Machine, db relation.Instance, steps int) relation.Sequence {
	pool := append([]relation.Const{"fresh-x", "fresh-y"}, m.Constants()...)
	for _, rel := range db {
		for _, tu := range rel.Tuples() {
			pool = append(pool, tu...)
		}
	}
	seq := make(relation.Sequence, steps)
	for i := range seq {
		seq[i] = relation.NewInstance()
		for _, d := range m.Schema().In {
			for n := rng.Intn(3); n > 0; n-- {
				tu := make(relation.Tuple, d.Arity)
				for j := range tu {
					tu[j] = pool[rng.Intn(len(pool))]
				}
				seq[i].Add(d.Name, tu)
			}
		}
	}
	return seq
}

// TestStepResponseBytes: a step's answer is built from the stepper's rows —
// the output from its out store, the log delta decoded from the tape — and
// carries only the relations the step derived, where Machine.Step's output
// also holds every declared relation empty and LogDelta's delta shares it.
// No response may show that. Over every registry model, under each
// acceptance mode in turn, the single-step response, the results=full
// /batch response and the dedupe answers of both must be the bytes their
// handlers write for the reference StepResult: Machine.Execute's output and
// log delta, Run.Valid's verdict.
func TestStepResponseBytes(t *testing.T) {
	modes := []core.AcceptMode{core.AcceptAll, core.ErrorFree, core.OKEveryStep, core.AcceptAtEnd}
	for k, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			m, db := models.Get(name), models.DefaultDB(name)
			inputs := randomScript(rand.New(rand.NewSource(int64(k+1))), m, db, 16)
			ref, err := m.Execute(db, inputs)
			if err != nil {
				t.Fatal(err)
			}
			mode := modes[k%len(modes)]
			e := memEngine(t, 2)
			h := Handler(e)
			for _, id := range []string{"single", "batched"} {
				if _, err := e.Open(&OpenRequest{ID: id, Model: name, Mode: mode.String()}); err != nil {
					t.Fatal(err)
				}
			}
			post := func(path, key string, body any) []byte {
				t.Helper()
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
				if key != "" {
					req.Header.Set("Idempotency-Key", key)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			single := func(res *StepResult) []byte {
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusOK, res)
				return rec.Body.Bytes()
			}
			batch := func(res *StepResult) []byte {
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(BatchResponse{Results: []BatchItemStatus{{Status: http.StatusOK, Result: res}}})
				return buf.Bytes()
			}
			logged, produced := 0, 0
			for i, in := range inputs {
				valid := (&core.Run{Outputs: ref.Outputs[:i+1]}).Valid(mode)
				key := fmt.Sprintf("k%d", i)
				for _, id := range []string{"single", "batched"} {
					want := &StepResult{ID: id, Seq: i + 1, Output: ref.Outputs[i], Log: ref.Logs[i], Valid: valid}
					dup := &StepResult{ID: id, Seq: i + 1, Log: ref.Logs[i], Valid: valid, Duplicate: true}
					for _, w := range []*StepResult{want, dup} {
						var got, exp []byte
						if id == "single" {
							got = post("/sessions/single/input", key, map[string]any{"input": in})
							exp = single(w)
						} else {
							items := []BatchItem{{Session: id, Key: key, Input: in}}
							got = post("/batch", "", BatchRequest{Steps: items, Results: "full"})
							exp = batch(w)
						}
						if !bytes.Equal(got, exp) {
							t.Fatalf("%s step %d (duplicate: %v): response\n%s\nwant\n%s", id, i+1, w.Duplicate, got, exp)
						}
					}
				}
				if !ref.Logs[i].Empty() {
					logged++
				}
				if !ref.Outputs[i].Empty() {
					produced++
				}
			}
			if logged == 0 || produced == 0 {
				t.Fatalf("the script exercises too little: %d of %d steps log, %d output", logged, len(inputs), produced)
			}
		})
	}
}
