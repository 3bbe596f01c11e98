package sat

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden trajectory files under testdata")

const goldenTrajectories = "testdata/trajectories.golden"

// goldenCase is one solver problem of the trajectory corpus: a fresh solver
// loaded by build, solved by solve.
type goldenCase struct {
	name  string
	build func() *Solver
	solve func(*Solver) Status
}

// randomKCNF builds a seeded random k-CNF near the satisfiability threshold,
// so the corpus mixes SAT and UNSAT answers and real search on both.
func randomKCNF(seed int64) *Solver {
	r := rand.New(rand.NewSource(seed))
	k, ratio, n := 3, 4.26, 20+r.Intn(60)
	if seed%2 == 1 {
		k, ratio, n = 4, 9.93, 15+r.Intn(35)
	}
	s := New()
	for v := 0; v < n; v++ {
		s.NewVar()
	}
	for c := 0; c < int(ratio*float64(n)); c++ {
		cl := make([]int, k)
		for i := range cl {
			cl[i] = 1 + r.Intn(n)
			if r.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		if err := s.AddClause(cl...); err != nil {
			panic(err)
		}
	}
	return s
}

// fuzzSeeds are FuzzDIMACS's seed inputs, solved the way the fuzz target
// solves them.
var fuzzSeeds = []string{
	"p cnf 3 2\n1 -2 0\n2 3 0\n",
	"1 2 0\n-1 0\n-2 0\n",
	"c pigeonhole\np cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
	"p cnf 2 1\n1 1 -1 0",
	"",
	"p cnf 0 0\n",
	"c comment only\n",
}

func goldenCases() []goldenCase {
	plain := func(s *Solver) Status { return s.Solve() }
	var cases []goldenCase
	for seed := int64(0); seed < 400; seed++ {
		seed := seed
		cases = append(cases, goldenCase{fmt.Sprintf("random/%03d", seed), func() *Solver { return randomKCNF(seed) }, plain})
	}
	for i, src := range fuzzSeeds {
		src := src
		cases = append(cases, goldenCase{fmt.Sprintf("fuzzseed/%d", i), func() *Solver {
			s, err := ParseDIMACS(strings.NewReader(src))
			if err != nil {
				panic(err)
			}
			return s
		}, func(s *Solver) Status { return s.SolveBudget(5000) }})
	}
	for n := 5; n <= 7; n++ {
		n := n
		cases = append(cases, goldenCase{fmt.Sprintf("pigeonhole/%d-%d", n+1, n), func() *Solver { return pigeonhole(n) }, plain})
	}
	return cases
}

// trajectory renders what a solve did: the answer, the search counters and
// a hash of the model. Two solvers that agree on every line made the same
// search.
func trajectory(s *Solver, st Status) string {
	p, c, d := s.Stats()
	model := "-"
	if st == Sat {
		sum := sha256.Sum256([]byte(fmt.Sprint(s.Model())))
		model = hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("%s props=%d conflicts=%d decisions=%d model=%s", st, p, c, d, model)
}

// TestGoldenTrajectories pins the solver's search, not just its answers:
// every corpus problem must reproduce the recorded status, propagation,
// conflict and decision counts and model. Branching order, clause intake
// and conflict analysis may be re-implemented only in ways that keep every
// line. Regenerate (after a deliberate change of search) with
// go test ./internal/sat -run TestGoldenTrajectories -update.
func TestGoldenTrajectories(t *testing.T) {
	var got []string
	for _, gc := range goldenCases() {
		s := gc.build()
		st := gc.solve(s)
		got = append(got, gc.name+" "+trajectory(s, st))
		if gc.name == "pigeonhole/8-7" {
			_, conflicts, _ := s.Stats()
			if conflicts <= 5000 {
				t.Errorf("pigeonhole/8-7 took %d conflicts; the corpus needs > 5000 to reach the activity rescale", conflicts)
			}
			// Without a rescale varInc would be 0.95^-conflicts; the 1e-100
			// rescale leaves it at least 1e50 below that.
			if math.Log(s.varInc) > float64(conflicts)*math.Log(1/0.95)-50*math.Ln10 {
				t.Errorf("pigeonhole/8-7: varInc %g shows no activity rescale after %d conflicts", s.varInc, conflicts)
			}
		}
	}
	checkGolden(t, goldenTrajectories, got)
}

// checkGolden compares got line by line with the golden file, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
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
