package verify

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

var update = flag.Bool("update", false, "rewrite the golden verdict file under testdata")

const goldenVerdicts = "testdata/verdicts.golden"

// goldenPrefix draws a seeded input prefix of the given length for m: each
// step holds one or two facts over the database's active domain and the
// rules' constants.
func goldenPrefix(m *core.Machine, db relation.Instance, seed int64, steps int) relation.Sequence {
	r := rand.New(rand.NewSource(seed))
	pool := append(db.ActiveDomain(), m.Constants()...)
	if len(pool) == 0 {
		pool = []relation.Const{"k1"}
	}
	in := m.Schema().In
	var seq relation.Sequence
	for i := 0; i < steps; i++ {
		step := relation.NewInstance()
		for f := 0; f < 1+r.Intn(2); f++ {
			d := in[r.Intn(len(in))]
			t := make(relation.Tuple, d.Arity)
			for j := range t {
				t[j] = pool[r.Intn(len(pool))]
			}
			step.Add(d.Name, t)
		}
		seq = append(seq, step)
	}
	return seq
}

// goldenAtom renders pred(X1, …, Xn), or the bare name for a proposition.
func goldenAtom(pred string, arity int) string {
	if arity == 0 {
		return pred
	}
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i+1)
	}
	return pred + "(" + strings.Join(vars, ", ") + ")"
}

// widened copies every database tuple under two renamings of its
// constants, tripling the domain the grounder enumerates.
func widened(db relation.Instance) relation.Instance {
	out := db.Clone()
	for name, r := range db {
		for _, t := range r.Tuples() {
			for _, suffix := range []string{"-2", "-3"} {
				u := make(relation.Tuple, len(t))
				for i, c := range t {
					u[i] = c + relation.Const(suffix)
				}
				out.Add(name, u)
			}
		}
	}
	return out
}

func oneLine(s relation.Sequence) string {
	return strings.ReplaceAll(s.String(), "\n", " | ")
}

// verdictLines runs the three live-facing decision procedures on one model
// and database over seeded prefixes and renders every outcome: verdict,
// grounding statistics and the rendered witness.
func verdictLines(t *testing.T, name, dbTag string, db relation.Instance) []string {
	m := models.Get(name)
	s := m.Schema()
	opts := &Options{Parallelism: 1}
	var out []string
	stats := func(st Stats) string {
		return fmt.Sprintf("domain=%d vars=%d clauses=%d", st.DomainSize, st.Vars, st.Clauses)
	}
	for k, steps := range []int{0, 1, 3, 6} {
		prefix := goldenPrefix(m, db, int64(k+1), steps)
		at := fmt.Sprintf("%s/%s/p%d", name, dbTag, k)
		for _, o := range s.Out {
			goal := goldenAtom(o.Name, o.Arity)
			g, err := ParseGoal(goal)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ReachGoalFrom(m, db, prefix, g, opts)
			if err != nil {
				out = append(out, fmt.Sprintf("%s reach %s: error %v", at, goal, err))
				continue
			}
			out = append(out, fmt.Sprintf("%s reach %s: %v %s witness=%s", at, goal, res.Reachable, stats(res.Stats), oneLine(res.Witness)))
			if steps == 0 {
				res, err := ReachGoalFrom(m, db, nil, g, &Options{Parallelism: 1, UnknownDB: true})
				if err != nil {
					out = append(out, fmt.Sprintf("%s reach-unknowndb %s: error %v", at, goal, err))
				} else {
					out = append(out, fmt.Sprintf("%s reach-unknowndb %s: %v %s witness=%s db=%s", at, goal, res.Reachable, stats(res.Stats), oneLine(res.Witness), res.WitnessDB))
				}
			}
			for _, in := range s.In {
				if in.Arity > o.Arity || !s.State.Has("past-"+in.Name) {
					continue
				}
				cond := goal + " => " + goldenAtom("past-"+in.Name, in.Arity)
				c, err := ParseCondition(cond)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := CheckTemporalFrom(m, db, prefix, []*Condition{c}, opts)
				if err != nil {
					out = append(out, fmt.Sprintf("%s temporal %s: error %v", at, cond, err))
					continue
				}
				out = append(out, fmt.Sprintf("%s temporal %s: %v %s counterexample=%s", at, cond, tr.Holds, stats(tr.Stats), oneLine(tr.Counterexample)))
			}
		}
		if steps == 0 {
			continue
		}
		run, err := m.Execute(db, prefix)
		if err != nil {
			t.Fatal(err)
		}
		reversed := make(relation.Sequence, len(run.Logs))
		for i, l := range run.Logs {
			reversed[len(run.Logs)-1-i] = l
		}
		for _, log := range []struct {
			tag string
			seq relation.Sequence
		}{{"log", run.Logs}, {"reversed", reversed}} {
			lv, err := LogValidity(m, db, log.seq, opts)
			if err != nil {
				out = append(out, fmt.Sprintf("%s logvalid %s: error %v", at, log.tag, err))
				continue
			}
			out = append(out, fmt.Sprintf("%s logvalid %s: %v %s witness=%s", at, log.tag, lv.Valid, stats(lv.Stats), oneLine(lv.Witness)))
		}
	}
	return out
}

// TestGoldenVerdicts pins the decision procedures end to end: for every
// Spocus model of the registry, over seeded prefixes, ReachGoalFrom,
// CheckTemporalFrom and LogValidity must reproduce the recorded verdicts,
// grounding statistics (domain, vars, clauses) and rendered witnesses.
// Regenerate (after a deliberate change of encoding or search) with
// go test ./internal/verify -run TestGoldenVerdicts -update; a re-record
// must leave the verdict column as it was, and a changed witness must still
// replay, which the procedures check themselves.
//
// Each line also keeps, as naive=vars/clauses, the grounding size of the
// domain-enumerating grounder the file was first recorded with: a record
// carried forward by -update, never compared.
func TestGoldenVerdicts(t *testing.T) {
	var got []string
	for _, name := range models.Names() {
		if models.Get(name).Kind() != core.KindSpocus {
			continue
		}
		db := models.DefaultDB(name)
		got = append(got, verdictLines(t, name, "db", db)...)
		got = append(got, verdictLines(t, name, "wide", widened(db))...)
	}
	checkGolden(t, goldenVerdicts, got)
}

// naiveField introduces the recorded naive grounding size of a line.
const naiveField = " naive="

// splitNaive removes the naive=… field from a golden line and returns the
// line without it and the field's value ("" when absent).
func splitNaive(line string) (string, string) {
	i := strings.Index(line, naiveField)
	if i < 0 {
		return line, ""
	}
	rest := line[i+len(naiveField):]
	j := strings.IndexByte(rest, ' ')
	if j < 0 {
		return line[:i], rest
	}
	return line[:i] + rest[j:], rest[:j]
}

// withNaive inserts the naive=… field after a line's clauses=… field.
func withNaive(line, naive string) string {
	i := strings.Index(line, " clauses=")
	if naive == "" || i < 0 {
		return line
	}
	j := i + 1 + strings.IndexByte(line[i+1:]+" ", ' ')
	return line[:j] + naiveField + naive + line[j:]
}

// goldenKey is the part of a golden line before its verdict.
func goldenKey(line string) string {
	k, _, _ := strings.Cut(line, ": ")
	return k
}

// checkGolden compares got line by line with the golden file, naive fields
// aside, or rewrites the file under -update, carrying each line's naive
// field forward.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	var want []string
	naive := map[string]string{}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line, n := splitNaive(sc.Text())
			want = append(want, line)
			naive[goldenKey(line)] = n
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(got))
		for i, line := range got {
			lines[i] = withNaive(line, naive[goldenKey(line)])
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", path, len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("%s:%d\n got  %s\n want %s", path, i+1, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%s: %d lines differ in all", path, bad)
	}
}
