package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if err := s.AddClause(a); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) {
		t.Error("unit clause not satisfied")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(a)
	s.AddClause(-a)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClause(t *testing.T) {
	s := New()
	s.NewVar()
	s.AddClause()
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	s.NewVar()
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if err := s.AddClause(a, -a); err != nil {
		t.Fatal(err)
	}
	if s.NumClauses() != 0 {
		t.Error("tautology stored")
	}
}

func TestBadLiteral(t *testing.T) {
	s := New()
	s.NewVar()
	if err := s.AddClause(0); err == nil {
		t.Error("literal 0 accepted")
	}
	if err := s.AddClause(5); err == nil {
		t.Error("undeclared variable accepted")
	}
}

func TestImplicationChain(t *testing.T) {
	// x1 ∧ (x1→x2) ∧ ... ∧ (x99→x100): forced model, all true.
	s := New()
	n := 100
	vars := make([]int, n+1)
	for i := 1; i <= n; i++ {
		vars[i] = s.NewVar()
	}
	s.AddClause(vars[1])
	for i := 1; i < n; i++ {
		s.AddClause(-vars[i], vars[i+1])
	}
	if s.Solve() != Sat {
		t.Fatal("chain unsat")
	}
	for i := 1; i <= n; i++ {
		if !s.Value(vars[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons into n holes — classically
// unsatisfiable and requires real conflict analysis.
func pigeonhole(n int) *Solver {
	s := New()
	// p[i][j]: pigeon i in hole j.
	p := make([][]int, n+1)
	for i := 0; i <= n; i++ {
		p[i] = make([]int, n)
		for j := 0; j < n; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(-p[i][j], -p[k][j])
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if got := pigeonhole(n).Solve(); got != Unsat {
			t.Errorf("PHP(%d+1,%d) = %v, want Unsat", n, n, got)
		}
	}
}

func TestPigeonholeExactFitSat(t *testing.T) {
	// n pigeons into n holes is satisfiable.
	s := New()
	n := 5
	p := make([][]int, n)
	for i := 0; i < n; i++ {
		p[i] = make([]int, n)
		for j := 0; j < n; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				s.AddClause(-p[i][j], -p[k][j])
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(%d,%d) = %v, want Sat", n, n, got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(-a, b) // a → b
	if got := s.Solve(a, -b); got != Unsat {
		t.Errorf("Solve(a, ¬b) = %v, want Unsat", got)
	}
	if got := s.Solve(a, b); got != Sat {
		t.Errorf("Solve(a, b) = %v, want Sat", got)
	}
	if got := s.Solve(-a, -b); got != Sat {
		t.Errorf("Solve(¬a, ¬b) = %v, want Sat", got)
	}
	// Solver remains usable without assumptions.
	if got := s.Solve(); got != Sat {
		t.Errorf("Solve() = %v, want Sat", got)
	}
}

func TestModelSatisfiesClauses(t *testing.T) {
	s := New()
	n := 20
	vars := make([]int, n+1)
	for i := 1; i <= n; i++ {
		vars[i] = s.NewVar()
	}
	r := rand.New(rand.NewSource(7))
	var cls [][]int
	for c := 0; c < 60; c++ {
		var cl []int
		for k := 0; k < 3; k++ {
			l := vars[1+r.Intn(n)]
			if r.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		cls = append(cls, cl)
		s.AddClause(cl...)
	}
	if s.Solve() != Sat {
		t.Skip("random instance unsat; soundness checked elsewhere")
	}
	for _, cl := range cls {
		ok := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if (l > 0) == s.Value(v) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", cl)
		}
	}
}

// bruteForceSat enumerates all assignments of n variables.
func bruteForceSat(n int, clauses [][]int) bool {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := mask&(1<<(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestPropMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6) // 3..8 vars
		m := r.Intn(25)    // up to 24 clauses
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var clauses [][]int
		for c := 0; c < m; c++ {
			width := 1 + r.Intn(3)
			var cl []int
			for k := 0; k < width; k++ {
				l := 1 + r.Intn(n)
				if r.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		got := s.Solve() == Sat
		want := bruteForceSat(n, clauses)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	src := `c example
p cnf 3 4
1 -2 0
2 3 0
-1 0
-3 2 0
`
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 || s.NumClauses() != 4 {
		t.Fatalf("vars=%d clauses=%d", s.NumVars(), s.NumClauses())
	}
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumClauses() != s.NumClauses() {
		t.Errorf("round trip clause count %d vs %d", s2.NumClauses(), s.NumClauses())
	}
}

func TestDIMACSUnsatInstance(t *testing.T) {
	src := "p cnf 3 4\n1 -2 0\n2 3 0\n-1 0\n-3 2 0\n"
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestDIMACSErrors(t *testing.T) {
	for _, src := range []string{"p dnf 1 1\n1 0\n", "p cnf x 1\n", "1 x 0\n"} {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDIMACS(%q) succeeded", src)
		}
	}
}

func TestSolveBudget(t *testing.T) {
	s := pigeonhole(9)
	if got := s.SolveBudget(5); got != Unknown {
		// A tiny budget should not complete PHP(10,9); if it somehow does,
		// the answer must still be Unsat.
		if got != Unsat {
			t.Errorf("SolveBudget = %v", got)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pigeonhole(7).Solve() != Unsat {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < b.N; i++ {
		n := 60
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for c := 0; c < int(4.2*float64(n)); c++ {
			var cl []int
			for k := 0; k < 3; k++ {
				l := 1 + r.Intn(n)
				if r.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			s.AddClause(cl...)
		}
		s.Solve()
	}
}

// TestSolveBudgetPerCall gives two budgeted calls on one solver the same
// budget: the second must get all of it, not what the first left over.
func TestSolveBudgetPerCall(t *testing.T) {
	s := pigeonhole(7)
	const budget = 300
	if got := s.SolveBudget(budget); got != Unknown {
		t.Fatalf("first SolveBudget = %v, want Unknown", got)
	}
	_, first, _ := s.Stats()
	if got := s.SolveBudget(budget); got != Unknown {
		t.Fatalf("second SolveBudget = %v, want Unknown", got)
	}
	_, total, _ := s.Stats()
	if second := total - first; second != budget+1 {
		t.Errorf("second call ran %d conflicts, want the full budget of %d plus the one that exceeds it (first ran %d)", second, budget, first)
	}
}

// BenchmarkSolveDecisions measures a search made almost entirely of
// decisions — an under-constrained random 3-CNF, few conflicts — at three
// sizes, where choosing the branching variable is the per-decision cost.
func BenchmarkSolveDecisions(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var decisions uint64
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(n)))
				s := New()
				for v := 0; v < n; v++ {
					s.NewVar()
				}
				for c := 0; c < 2*n; c++ {
					cl := make([]int, 3)
					for k := range cl {
						cl[k] = 1 + r.Intn(n)
						if r.Intn(2) == 0 {
							cl[k] = -cl[k]
						}
					}
					s.AddClause(cl...)
				}
				if s.Solve() != Sat {
					b.Fatal("under-constrained instance unsat")
				}
				_, _, decisions = s.Stats()
			}
			b.ReportMetric(float64(decisions), "decisions/op")
		})
	}
}
