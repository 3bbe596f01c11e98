package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/relation"
)

// stepSink keeps BenchmarkStepperStep's result live.
var stepSink relation.Instance

// BenchmarkStepperStep times one Stepper.Step of SHORT at small state — a
// 12-item catalogue ordered and paid for round and round, so no relation
// passes 12 tuples: the step engine's own cost, with nothing of the
// session around it (no shard lock, admission, log delta or dedupe).
func BenchmarkStepperStep(b *testing.B) {
	m := MustParseProgram(shortSrc)
	db := relation.NewInstance()
	var cycle []relation.Instance
	for i := 0; i < 12; i++ {
		item, price := fmt.Sprintf("item-%04d", i), strconv.Itoa(100+i)
		db.Add("price", relation.Tuple{relation.Const(item), relation.Const(price)})
		db.Add("available", relation.Tuple{relation.Const(item)})
		cycle = append(cycle, step("order("+item+")"), step("pay("+item+", "+price+")"))
	}
	st, err := m.NewStepper(db, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range cycle {
		st.Step(in, nil, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepSink, _ = st.Step(cycle[i%len(cycle)], nil, true)
	}
}
