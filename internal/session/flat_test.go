package session

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/verify"
)

// A step costs its input and output, not the state it lands on. These
// tests count — allocations and the executor's rows pulled — instead of
// timing, so they hold on any machine: were a state relation cloned,
// re-interned, re-indexed or scanned on the step path, the count at depth
// 4,096 would exceed the count at depth 16 by thousands, not by two.

// stepCost applies the inputs to s, one step each, and returns the
// allocations and the executor rows one step costs. The allocation count is
// the least over the steps: what a step costs when no map happens to grow
// under it and no pooled context was dropped (under -race sync.Pool drops a
// quarter of its Puts at random), and so the same number on every run.
func stepCost(t *testing.T, s *Session, inputs []relation.Instance) (allocs float64, rows int64) {
	t.Helper()
	next := 0
	one := func() {
		s.apply(inputs[next])
		next++
	}
	before := ra.Snapshot().RowsPulled
	one()
	rows = ra.Snapshot().RowsPulled - before
	allocs = testing.AllocsPerRun(1, one)
	for next+2 <= len(inputs) {
		allocs = min(allocs, testing.AllocsPerRun(1, one))
	}
	return allocs, rows
}

// shopAt returns a SHORT session at the given depth — that many items
// ordered and paid for — and steps that each pay for one more ordered item:
// the deliver rule, joining the input against past-order, price and
// past-pay.
func shopAt(t *testing.T, depth, steps int) (*Session, []relation.Instance) {
	t.Helper()
	db, order, pay := relation.NewInstance(), relation.NewInstance(), relation.NewInstance()
	var inputs []relation.Instance
	for i := 0; i < depth+steps; i++ {
		item, price := fmt.Sprintf("item-%04d", i), strconv.Itoa(100+i)
		db.Add("price", relation.Tuple{relation.Const(item), relation.Const(price)})
		db.Add("available", relation.Tuple{relation.Const(item)})
		order.Add("order", relation.Tuple{relation.Const(item)})
		if i < depth {
			pay.Add("pay", relation.Tuple{relation.Const(item), relation.Const(price)})
		} else {
			inputs = append(inputs, step(t, fact("pay", item, price)))
		}
	}
	s, err := newSession("shop", &OpenRequest{Model: "short", DB: db})
	if err != nil {
		t.Fatal(err)
	}
	s.apply(order)
	s.apply(pay)
	return s, inputs
}

// auctionAt returns an auction session with depth lots listed, bid on and
// accepted, and steps that each accept the bid on one more lot: the award
// rule, joining the input against past-bid and past-accept.
func auctionAt(t *testing.T, depth, steps int) (*Session, []relation.Instance) {
	t.Helper()
	list, bid, accept := relation.NewInstance(), relation.NewInstance(), relation.NewInstance()
	var inputs []relation.Instance
	for i := 0; i < depth+steps; i++ {
		lot := fmt.Sprintf("lot-%04d", i)
		list.Add("list", relation.Tuple{relation.Const(lot)})
		bid.Add("bid", relation.Tuple{relation.Const(lot), "alice"})
		if i < depth {
			accept.Add("accept", relation.Tuple{relation.Const(lot), "alice"})
		} else {
			inputs = append(inputs, step(t, fact("accept", lot, "alice")))
		}
	}
	s, err := newSession("auction", &OpenRequest{Model: "auction"})
	if err != nil {
		t.Fatal(err)
	}
	s.apply(list)
	s.apply(bid)
	s.apply(accept)
	return s, inputs
}

func TestStepCostIsFlatInDepth(t *testing.T) {
	for _, tc := range []struct {
		model, fires string
		at           func(*testing.T, int, int) (*Session, []relation.Instance)
	}{{"short", "deliver", shopAt}, {"auction", "award", auctionAt}} {
		t.Run(tc.model, func(t *testing.T) {
			const steps = 33
			s, inputs := tc.at(t, 16, steps)
			shallowAllocs, shallowRows := stepCost(t, s, inputs)
			s, inputs = tc.at(t, 4096, steps)
			deepAllocs, deepRows := stepCost(t, s, inputs)
			t.Logf("depth 16: %.0f allocs, %d rows pulled; depth 4096: %.0f allocs, %d rows pulled", shallowAllocs, shallowRows, deepAllocs, deepRows)
			if deepAllocs > shallowAllocs+2 || deepRows > shallowRows+2 {
				t.Fatalf("a step at depth 4096 costs %.0f allocs and %d rows pulled, at depth 16 %.0f and %d: the step path depends on the state's size",
					deepAllocs, deepRows, shallowAllocs, shallowRows)
			}
			if last := machineOf(s).tape.Delta(s.steps - 1); last.Rel(tc.fires).Len() != 1 {
				t.Fatalf("the measured step logged %v: it did not fire the %s rule it is meant to cost", last, tc.fires)
			}
		})
	}
}

// TestGoalGroundingLinearInDepth asks deliver(X) of a SHORT session at two
// depths and compares the SAT variables the grounding builds. Only the
// price join admits bindings of the rule body, and it grows by one tuple per
// item, so the encoding must grow linearly: 16× the depth may cost at most
// 20× the variables. An encoding that enumerates the domain for the body's
// (X, Y) pairs grows with its square (≈ 240× here); each solve runs under a
// deadline so such an encoding fails on it instead of grounding millions of
// clauses.
func TestGoalGroundingLinearInDepth(t *testing.T) {
	g, err := verify.ParseGoal("deliver(X)")
	if err != nil {
		t.Fatal(err)
	}
	vars := func(depth int) int {
		s, _ := shopAt(t, depth, 1) // one item ordered and not yet paid
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		res, err := verify.ReachGoalFrom(machineOf(s).mach, machineOf(s).db.inst, relation.Sequence{machineOf(s).stepper.Past()}, g, &verify.Options{Context: ctx})
		if err != nil {
			t.Fatalf("deliver(X) at depth %d: %v", depth, err)
		}
		if !res.Reachable {
			t.Fatalf("deliver(X) at depth %d: unreachable, want the unpaid item deliverable", depth)
		}
		return res.Stats.Vars
	}
	shallow, deep := vars(64), vars(1024)
	t.Logf("SAT vars of deliver(X): %d at depth 64, %d at depth 1024 (%.1f×)", shallow, deep, float64(deep)/float64(shallow))
	if deep > 20*shallow {
		t.Fatalf("deliver(X) grounds %d vars at depth 1024 and %d at depth 64: more than 20× for 16× the depth", deep, shallow)
	}
}

// parentSmallStepAllocs is what one step of TestSmallStateStepAllocates
// allocated through Session.apply when apply ran Machine.Step on a
// relation.Instance state (measured then with this test's steps). It is
// kept as history; smallStepAllocs is the ceiling.
const parentSmallStepAllocs = 28

// smallStepAllocs is the ceiling: what one step allocates on the resident
// stepper with predicates compiled to slots, packed membership keys and a
// recycled output store (18 before those). Under the race detector the
// pooled evaluation frames are dropped now and again, which averages to
// about two more; the test allows three there.
const smallStepAllocs = 13

// smallShop is the benchmark's wide_mem shape: a 12-item catalogue and the
// cycle that orders and pays for each item in turn, so a session shopping
// round and round never holds more than 12 tuples a relation.
func smallShop(t *testing.T) (relation.Instance, []relation.Instance) {
	db := relation.NewInstance()
	var cycle []relation.Instance
	for i := 0; i < 12; i++ {
		item, price := fmt.Sprintf("item-%04d", i), strconv.Itoa(100+i)
		db.Add("price", relation.Tuple{relation.Const(item), relation.Const(price)})
		db.Add("available", relation.Tuple{relation.Const(item)})
		cycle = append(cycle, step(t, fact("order", item)), step(t, fact("pay", item, price)))
	}
	return db, cycle
}

// TestSmallStateStepAllocates is the control: the smallShop session must
// not pay for the resident form.
func TestSmallStateStepAllocates(t *testing.T) {
	db, cycle := smallShop(t)
	s, err := newSession("small", &OpenRequest{Model: "short", DB: db})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	shop := func() {
		s.apply(cycle[next%len(cycle)])
		next++
	}
	for range cycle {
		shop()
	}
	got := testing.AllocsPerRun(20*len(cycle), shop)
	ceiling := smallStepAllocs
	if raceEnabled {
		ceiling += 3
	}
	t.Logf("%.0f allocs per step (ceiling %d; on Machine.Step: %d)", got, ceiling, parentSmallStepAllocs)
	if got > float64(ceiling) {
		t.Fatalf("a small-state step allocates %.0f times, over the ceiling of %d", got, ceiling)
	}
}

// engineInputAllocs is the ceiling on what one Engine.Input of
// TestEngineInputAllocates allocates: exactly what the step itself does
// (smallStepAllocs). A request runs on its caller's goroutine under the
// shard lock, so its closure stays on the stack and there is no reply
// channel; handing each request to a shard goroutine cost 16.
const engineInputAllocs = 13

// TestEngineInputAllocates pins the whole in-memory engine path of a step —
// shard lock, admission, apply, result — on the smallShop script.
func TestEngineInputAllocates(t *testing.T) {
	db, cycle := smallShop(t)
	e := memEngine(t, 1)
	if _, err := e.Open(&OpenRequest{ID: "small", Model: "short", DB: db}); err != nil {
		t.Fatal(err)
	}
	next := 0
	shop := func() {
		if _, err := e.Input("small", cycle[next%len(cycle)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range cycle {
		shop()
	}
	got := testing.AllocsPerRun(20*len(cycle), shop)
	ceiling := engineInputAllocs
	if raceEnabled {
		ceiling += 3
	}
	t.Logf("%.0f allocs per Engine.Input (ceiling %d)", got, ceiling)
	if got > float64(ceiling) {
		t.Fatalf("an Engine.Input allocates %.0f times, over the ceiling of %d", got, ceiling)
	}
}
