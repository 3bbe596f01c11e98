package verify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/models"
	"repro/internal/relation"
)

// tinyMachine is a small Spocus transducer over a 3-constant pool, used to
// cross-check the decision procedures against exhaustive search.
const tinySrc = `
transducer tiny2
schema
  database: good/1;
  input: put/1, tag/2;
  state: past-put/1, past-tag/2;
  output: hit/1, pairup/2;
  log: hit, pairup;
state rules
  past-put(X) +:- put(X);
  past-tag(X,Y) +:- tag(X,Y);
output rules
  hit(X) :- put(X), good(X), NOT past-put(X);
  pairup(X,Y) :- tag(X,Y), past-put(X), X <> Y;
`

func tinyMachine() (*core.Machine, relation.Instance, []relation.Const) {
	m := core.MustParseProgram(tinySrc)
	db := relation.NewInstance()
	db.Add("good", relation.Tuple{"a"})
	db.Add("good", relation.Tuple{"b"})
	return m, db, []relation.Const{"a", "b", "c"}
}

// bruteReachable enumerates all 2-step runs with at most two facts per step
// over the pool and tests the goal on the last output.
func bruteReachable(m *core.Machine, db relation.Instance, g *Goal, pool []relation.Const) bool {
	steps := pooledSteps(poolFacts(m, pool))
	for _, s1 := range steps {
		for _, s2 := range steps {
			run, err := m.Execute(db, relation.Sequence{s1, s2})
			if err != nil {
				continue
			}
			if g.Holds(run.LastOutput()) {
				return true
			}
		}
	}
	return false
}

// poolFacts is every input fact of m over the pool.
func poolFacts(m *core.Machine, pool []relation.Const) []relation.Fact {
	var out []relation.Fact
	for _, d := range m.Schema().In {
		for _, t := range enumerateTuples(pool, d.Arity) {
			out = append(out, relation.Fact{Rel: d.Name, Args: t})
		}
	}
	return out
}

// pooledSteps is every input instance holding at most two of the facts,
// the empty one first.
func pooledSteps(facts []relation.Fact) []relation.Instance {
	steps := []relation.Instance{relation.NewInstance()}
	for i, f := range facts {
		s := relation.NewInstance()
		s.Add(f.Rel, f.Args)
		steps = append(steps, s)
		for _, f2 := range facts[i+1:] {
			s2 := s.Clone()
			s2.Add(f2.Rel, f2.Args)
			steps = append(steps, s2)
		}
	}
	return steps
}

// continuation is a two-step continuation of a prefix with the output and
// the state its last step leaves.
type continuation struct {
	seq        relation.Sequence
	out, state relation.Instance
}

// pooledContinuations runs the prefix followed by every pair of the steps
// and keeps one continuation per distinct last output and last state: the
// outcomes every goal and every condition are then checked against. An
// empty first step leaves a Spocus state as it was, so the pairs cover the
// one-step continuations too.
func pooledContinuations(t *testing.T, m *core.Machine, db relation.Instance, prefix relation.Sequence, steps []relation.Instance) []continuation {
	t.Helper()
	run, err := m.Execute(db, prefix)
	if err != nil {
		t.Fatal(err)
	}
	state := relation.NewInstance()
	for _, d := range m.Schema().State {
		state.Ensure(d.Name, d.Arity)
	}
	if len(run.States) > 0 {
		state = run.States[len(run.States)-1]
	}
	seen := map[string]bool{}
	var out []continuation
	for _, s1 := range steps {
		mid, _, err := m.Step(s1, state, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, s2 := range steps {
			last, o, err := m.Step(s2, mid, db)
			if err != nil {
				t.Fatal(err)
			}
			key := o.String() + "|" + last.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, continuation{seq: relation.Sequence{s1, s2}, out: o, state: last})
		}
	}
	return out
}

// crossCheckFrom draws seeded prefixes from the steps and checks, for each,
// ReachGoalFrom on every goal and CheckTemporalFrom on every condition
// against the pooled continuations. It returns how many verdicts of each
// kind came out positive, so a caller can see both answers were exercised.
func crossCheckFrom(t *testing.T, m *core.Machine, db relation.Instance, steps []relation.Instance, goals, conds []string, prefixes int, seed int64) (reachable, holds, total int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < prefixes; k++ {
		var prefix relation.Sequence
		for i := r.Intn(4); i > 0; i-- {
			prefix = append(prefix, steps[r.Intn(len(steps))])
		}
		conts := pooledContinuations(t, m, db, prefix, steps)
		for _, src := range goals {
			g, err := ParseGoal(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ReachGoalFrom(m, db, prefix, g, nil)
			if err != nil {
				t.Fatalf("ReachGoalFrom(%s) after %s: %v", src, oneLine(prefix), err)
			}
			want := false
			for _, c := range conts {
				if g.Holds(c.out) {
					want = true
					break
				}
			}
			if res.Reachable != want {
				t.Errorf("%s: goal %s after %s: procedure=%v pooled search=%v (witness %s)", m.Name(), src, oneLine(prefix), res.Reachable, want, oneLine(res.Witness))
			}
			if want {
				reachable++
			}
		}
		for _, src := range conds {
			c, err := ParseCondition(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CheckTemporalFrom(m, db, prefix, []*Condition{c}, nil)
			if err != nil {
				t.Fatalf("CheckTemporalFrom(%s) after %s: %v", src, oneLine(prefix), err)
			}
			want := true
			for _, cont := range conts {
				violated, err := violates(dlog.MultiDB{cont.out, cont.state, db}, c)
				if err != nil {
					t.Fatal(err)
				}
				if violated {
					want = false
					break
				}
			}
			if res.Holds != want {
				t.Errorf("%s: condition %s after %s: procedure=%v pooled search=%v (counterexample %s)", m.Name(), src, oneLine(prefix), res.Holds, want, oneLine(res.Counterexample))
			}
			if want {
				holds++
			}
		}
		total++
	}
	return reachable, holds, total
}

// TestReachAndTemporalFromMatchPooledSearchTiny2 checks the progress forms of
// Theorems 3.2 and 3.3 on tiny2 against exhaustive two-step search from
// seeded prefixes. The pooled search is a sound oracle here: tiny2's rules
// have no body-only variables, so whether an output or state tuple holds
// depends only on input facts over that tuple's own constants; every goal
// and condition below speaks about at most two constants, of which at most
// one lies outside the database's {a, b}, so each answer found with fresh
// constants maps onto the pool {a, b, c} by a renaming that fixes a and b.
// Every goal and violation needs at most two facts at a step, which the
// pooled steps allow.
func TestReachAndTemporalFromMatchPooledSearchTiny2(t *testing.T) {
	m, db, pool := tinyMachine()
	goals := []string{
		"hit(X)", "hit(a)", "hit(c)",
		"pairup(X, Y)", "pairup(X, a)", "pairup(c, Y)", "pairup(a, b)",
		"hit(X), pairup(X, Y)", "pairup(X, Y), NOT hit(Y)",
	}
	conds := []string{
		"hit(X) => good(X)",
		"hit(X) => past-tag(X, X)",
		"pairup(X, Y) => past-put(X)",
		"pairup(X, Y) => good(Y)",
		"pairup(X, Y) => past-tag(Y, X)",
		"pairup(X, Y) => past-put(Y)",
		"hit(X), pairup(X, Y) => past-put(Y)",
	}
	reachable, holds, n := crossCheckFrom(t, m, db, pooledSteps(poolFacts(m, pool)), goals, conds, 10, 1)
	t.Logf("%d prefixes: %d/%d goals reachable, %d/%d conditions hold", n, reachable, n*len(goals), holds, n*len(conds))
}

// TestReachAndTemporalFromMatchPooledSearchShort checks the same on SHORT
// over a two-item catalogue. The pooled search draws only catalogue-typed
// facts — an order of an item, a payment of an item at either price — and
// is a sound oracle because every SHORT rule joins each input and state
// atom with price on all its variables: a fact over any other constant
// never reaches an output, and every goal and condition below binds its
// variables through an output or price atom. Every goal and violation needs
// at most two facts at a step.
func TestReachAndTemporalFromMatchPooledSearchShort(t *testing.T) {
	m := models.Short()
	db := relation.NewInstance()
	db.Add("price", relation.Tuple{"time", "855"})
	db.Add("price", relation.Tuple{"newsweek", "845"})
	db.Add("available", relation.Tuple{"time"})
	db.Add("available", relation.Tuple{"newsweek"})
	var facts []relation.Fact
	for _, item := range []relation.Const{"time", "newsweek"} {
		facts = append(facts, relation.Fact{Rel: "order", Args: relation.Tuple{item}})
		for _, price := range []relation.Const{"855", "845"} {
			facts = append(facts, relation.Fact{Rel: "pay", Args: relation.Tuple{item, price}})
		}
	}
	goals := []string{
		"deliver(X)", "deliver(time)", "sendbill(X, Y)", "sendbill(newsweek, Y)",
		"deliver(X), sendbill(X, Y)", "deliver(X), NOT sendbill(X, Y), sendbill(Z, Y)",
		"deliver(X), deliver(Y), X <> Y",
	}
	conds := []string{
		"deliver(X) => past-order(X)",
		"deliver(X), price(X, Y) => past-pay(X, Y)",
		"sendbill(X, Y) => past-order(X)",
		"sendbill(X, Y) => past-pay(X, Y)",
		"price(X, Y) => past-pay(X, Y)",
		"sendbill(X, Y), deliver(X) => past-pay(X, Y)",
	}
	reachable, holds, n := crossCheckFrom(t, m, db, pooledSteps(facts), goals, conds, 12, 2)
	t.Logf("%d prefixes: %d/%d goals reachable, %d/%d conditions hold", n, reachable, n*len(goals), holds, n*len(conds))
}

// TestPropReachGoalMatchesBruteForce: the Theorem 3.2 procedure agrees with
// exhaustive two-step search on random single-literal goals. (Witnesses may
// use fresh constants outside the pool; for this transducer fresh constants
// never help — outputs require database membership or equalities over
// already-known constants — so the pooled brute force is a sound oracle.)
func TestPropReachGoalMatchesBruteForce(t *testing.T) {
	m, db, pool := tinyMachine()
	consts := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var goalSrc string
		if r.Intn(2) == 0 {
			goalSrc = "hit(" + pick(r, consts, "X") + ")"
		} else {
			goalSrc = "pairup(" + pick(r, consts, "X") + ", " + pick(r, consts, "Y") + ")"
		}
		g, err := ParseGoal(goalSrc)
		if err != nil {
			return false
		}
		res, err := ReachGoal(m, db, g, nil)
		if err != nil {
			t.Logf("ReachGoal(%s): %v", goalSrc, err)
			return false
		}
		want := bruteReachable(m, db, g, pool)
		if res.Reachable != want {
			t.Logf("goal %s: procedure=%v brute=%v (witness %v)", goalSrc, res.Reachable, want, res.Witness)
		}
		return res.Reachable == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func pick(r *rand.Rand, consts []string, v string) string {
	if r.Intn(2) == 0 {
		return v
	}
	return consts[r.Intn(len(consts))]
}

// TestPropTemporalSoundOnRandomRuns: whenever CheckTemporal says a
// condition holds, no randomly sampled run may violate it (soundness
// direction sampled operationally).
func TestPropTemporalSoundOnRandomRuns(t *testing.T) {
	m, db, pool := tinyMachine()
	conds := []string{
		"hit(X) => good(X)",
		"pairup(X,Y) => past-put(X)",
		"hit(X) => past-put(X)",
		"pairup(X,Y) => good(Y)",
	}
	for _, src := range conds {
		c, err := ParseCondition(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckTemporal(m, db, []*Condition{c}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			continue // counterexamples are replay-verified inside CheckTemporal
		}
		// Sample runs and confirm no violation.
		r := rand.New(rand.NewSource(11))
		for trial := 0; trial < 150; trial++ {
			var seq relation.Sequence
			for j := 0; j < 1+r.Intn(3); j++ {
				in := relation.NewInstance()
				for k := 0; k < r.Intn(3); k++ {
					if r.Intn(2) == 0 {
						in.Add("put", relation.Tuple{pool[r.Intn(3)]})
					} else {
						in.Add("tag", relation.Tuple{pool[r.Intn(3)], pool[r.Intn(3)]})
					}
				}
				seq = append(seq, in)
			}
			if len(seq) == 0 {
				continue
			}
			if err := replayTemporalViolation(m, db, seq, c); err == nil {
				t.Fatalf("condition %q verified but violated by run %v", src, seq)
			}
		}
	}
}

// TestPropEquivalenceOfIdenticalMachines: any model compared with itself
// under a full log is equivalent (a sanity fixed point of Theorem 3.5).
func TestPropEquivalenceOfIdenticalMachines(t *testing.T) {
	db := models.MagazineDB()
	for _, mk := range []func() *core.Machine{models.Short, models.Restricted} {
		m := mk()
		logSet := append(m.Schema().In.Names(), m.Schema().Out.Names()...)
		full := models.WithLog(m, logSet...)
		eq, r1, r2, err := Equivalent(full, full, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%s not equivalent to itself: %v %v", m.Name(), r1.Counterexample, r2.Counterexample)
		}
	}
}
