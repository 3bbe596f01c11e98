package session

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/compose"
	"repro/internal/relation"
)

// TestPeekSharesPastUntilGrowth: a Peek of a state no step has grown since
// the last Peek hands out the past that Peek materialized — the same map,
// at a cost that does not depend on the state's size — and a step that
// grows the state makes the next Peek materialize afresh. Both kinds of
// session are held to it: a machine session's past and a network node's.
func TestPeekSharesPastUntilGrowth(t *testing.T) {
	kinds := []struct {
		name string
		// open starts a session on db; step applies one input to it; past
		// reads the past a View carries.
		open func(e *Engine, id string, db relation.Instance) error
		step func(e *Engine, id string, in relation.Instance) error
		past func(v *View) relation.Instance
	}{
		{
			name: "machine",
			open: func(e *Engine, id string, db relation.Instance) error {
				_, err := e.Open(&OpenRequest{ID: id, Model: "short", DB: db})
				return err
			},
			step: func(e *Engine, id string, in relation.Instance) error {
				_, err := e.Input(id, in)
				return err
			},
			past: func(v *View) relation.Instance { return v.Past },
		},
		{
			name: "network node",
			open: func(e *Engine, id string, db relation.Instance) error {
				spec := &compose.Spec{Nodes: []compose.NodeSpec{{Name: "shop", Model: "short", DB: db}}}
				_, err := e.Open(&OpenRequest{ID: id, Network: spec})
				return err
			},
			step: func(e *Engine, id string, in relation.Instance) error {
				_, err := e.NetInput(id, compose.StepInputs{"shop": in})
				return err
			},
			past: func(v *View) relation.Instance { return v.Nodes["shop"].Past },
		},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			e := memEngine(t, 1)
			peek := func(id string) relation.Instance {
				t.Helper()
				v, err := e.Peek(id)
				if err != nil {
					t.Fatal(err)
				}
				return k.past(v)
			}
			same := func(a, b relation.Instance) bool {
				return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
			}
			// at opens a session whose past holds n tuples: n/2 items
			// ordered and paid for, and one more item priced but not ordered.
			opened := 0
			at := func(n int) string {
				opened++
				id := fmt.Sprint(k.name, "-", opened)
				db, in := relation.NewInstance(), relation.NewInstance()
				for i := 0; i <= n/2; i++ {
					item, price := relation.Const(fmt.Sprintf("item-%04d", i)), relation.Const(strconv.Itoa(100+i))
					db.Add("price", relation.Tuple{item, price})
					if i < n/2 {
						in.Add("order", relation.Tuple{item})
						in.Add("pay", relation.Tuple{item, price})
					}
				}
				if err := k.open(e, id, db); err != nil {
					t.Fatal(err)
				}
				if err := k.step(e, id, in); err != nil {
					t.Fatal(err)
				}
				if got := peek(id).Len(); got != n {
					t.Fatalf("past holds %d tuples, want %d", got, n)
				}
				return id
			}

			id := at(16)
			first := peek(id)
			if !same(first, peek(id)) {
				t.Fatal("a second Peek of an unstepped session materialized a new past")
			}
			// Revisits: inputs the past already holds leave the state as it was.
			for _, in := range []relation.Instance{
				step(t, fact("order", "item-0000")),
				step(t, fact("pay", "item-0001", "101"), fact("order", "item-0002")),
				relation.NewInstance(),
			} {
				if err := k.step(e, id, in); err != nil {
					t.Fatal(err)
				}
				if !same(first, peek(id)) {
					t.Fatalf("after revisiting %s, Peek materialized a new past", in)
				}
			}
			// Growth: an item ordered for the first time.
			if err := k.step(e, id, step(t, fact("order", "item-0008"))); err != nil {
				t.Fatal(err)
			}
			grown := peek(id)
			if same(first, grown) {
				t.Fatal("after the state grew, Peek handed out the old past")
			}
			if !grown.Has("order", relation.Tuple{"item-0008"}) || first.Has("order", relation.Tuple{"item-0008"}) || grown.Len() != first.Len()+1 {
				t.Fatalf("past before growth %s, after %s", first, grown)
			}
			if !same(grown, peek(id)) {
				t.Fatal("a Peek after the growth was absorbed materialized a new past")
			}

			// Cost: a Peek of an unchanged state allocates the same at 16
			// tuples as at 1,024.
			allocs := func(id string) float64 {
				peek(id)
				return testing.AllocsPerRun(100, func() { peek(id) })
			}
			small, large := allocs(at(16)), allocs(at(1024))
			t.Logf("a Peek of an unchanged state allocates %.0f times at 16 tuples, %.0f at 1,024", small, large)
			if large > small {
				t.Fatalf("a Peek of an unchanged state allocates %.0f times at 1,024 tuples, over the %.0f at 16", large, small)
			}
		})
	}
}
