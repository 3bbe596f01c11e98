package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/relation"
)

// tapeSrc logs inputs and outputs of every arity from 0 to 3, and keeps
// one input and one output out of the log. Its outputs copy, permute and
// filter the inputs, so a step's delta mixes both sides, and outputs may
// be empty or absent whatever the input.
const tapeSrc = `
transducer tapes
schema
  database: d/1;
  input: i0/0, i1/1, i2/2, i3/3, quiet/1;
  state: past-i0/0, past-i1/1, past-i2/2, past-i3/3, past-quiet/1;
  output: o0/0, o1/1, o2/2, o3/3, mute/1;
  log: i0, i1, i2, i3, o0, o1, o2, o3;
output rules
  o0 :- i1(X), past-i0;
  o1(X) :- i2(X,Y), NOT past-i1(X);
  o2(Y,X) :- i3(X,Y,Z), d(Z);
  o3(Z,Y,X) :- i3(X,Y,Z);
  mute(X) :- quiet(X);
`

// randTapeInput draws one step's input: each relation absent, present and
// empty, or holding a few tuples over a small domain whose constants are
// interned in no particular order relative to how they sort.
func randTapeInput(r *rand.Rand) relation.Instance {
	in := relation.NewInstance()
	domain := []relation.Const{"delta", "b", "a", "zz", "c"}
	for _, d := range []relation.Decl{{Name: "i0"}, {Name: "i1", Arity: 1}, {Name: "i2", Arity: 2}, {Name: "i3", Arity: 3}, {Name: "quiet", Arity: 1}} {
		switch r.Intn(3) {
		case 0:
			continue
		case 1:
			in.Ensure(d.Name, d.Arity)
			continue
		}
		rel := in.Ensure(d.Name, d.Arity)
		for n := 1 + r.Intn(12); n > 0; n-- {
			t := make(relation.Tuple, d.Arity)
			for k := range t {
				t[k] = domain[r.Intn(len(domain))]
			}
			rel.Add(t)
		}
	}
	return in
}

// TestTapeRoundTripQuick appends random steps' log deltas to a tape: every
// step decodes to an instance equal to LogDelta's, the tape encodes to the
// bytes codec.Encoder.Sequence writes for the deltas, and a tape decoded
// from those bytes encodes to them again.
func TestTapeRoundTripQuick(t *testing.T) {
	m := core.MustParseProgram(tapeSrc)
	db := relation.NewInstance()
	db.Add("d", relation.Tuple{"a"})
	db.Add("d", relation.Tuple{"zz"})
	var zeroAry, empty, both int
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		st, err := m.NewStepper(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		tape, stores := m.NewLogTape(), m.NewLogTape()
		var deltas relation.Sequence
		for i, n := 0, r.Intn(12); i < n; i++ {
			in := randTapeInput(r)
			out, _ := st.Step(in, stores, true)
			delta := m.Schema().LogDelta(in, out)
			tape.Append(delta)
			deltas = append(deltas, delta)
			switch {
			case delta.Empty():
				empty++
			case delta.Rel("i0").Len() == 1 || delta.Rel("o0").Len() == 1:
				zeroAry++
			}
			if delta.Rel("i3").Len() > 0 && delta.Rel("o3").Len() > 0 {
				both++
			}
		}
		if tape.Len() != len(deltas) {
			t.Fatalf("seed %d: tape holds %d steps, want %d", seed, tape.Len(), len(deltas))
		}
		for i, want := range deltas {
			got := tape.Delta(i)
			if !got.Equal(want) || !want.Equal(got) {
				t.Fatalf("seed %d step %d: decoded %v, want %v", seed, i+1, got, want)
			}
			for name, rel := range got {
				if rel.Len() == 0 {
					t.Fatalf("seed %d step %d: decoded an empty %s", seed, i+1, name)
				}
			}
		}
		want := codec.Canonical(func(e *codec.Encoder) { e.Sequence(deltas) })
		got := codec.Canonical(func(e *codec.Encoder) { tape.Encode(e) })
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: tape encodes to\n%x\nsequence to\n%x", seed, got, want)
		}
		if got := codec.Canonical(func(e *codec.Encoder) { stores.Encode(e) }); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the tape the stepper wrote encodes to\n%x\nsequence to\n%x", seed, got, want)
		}
		back := m.NewLogTape()
		rd, err := codec.NewDecoder().Record(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Decode(rd); err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if again := codec.Canonical(func(e *codec.Encoder) { back.Encode(e) }); !bytes.Equal(again, want) {
			t.Fatalf("seed %d: decoded tape encodes to\n%x\nwant\n%x", seed, again, want)
		}
		if dec := back.Extend(nil); !dec.Equal(deltas) {
			t.Fatalf("seed %d: decoded tape reads %v, want %v", seed, dec, deltas)
		}
	}
	if zeroAry == 0 || empty == 0 || both == 0 {
		t.Fatalf("the random steps missed a shape: %d with a 0-ary fact, %d empty, %d logging i3 and o3", zeroAry, empty, both)
	}
}

// TestTapeViewAndExtend: a view keeps the steps the tape had when it was
// taken, and neither side's appends reach the other; Extend decodes only
// past the prefix it is given.
func TestTapeViewAndExtend(t *testing.T) {
	m := core.MustParseProgram(tapeSrc)
	one := func(c relation.Const) relation.Instance {
		in := relation.NewInstance()
		in.Add("i1", relation.Tuple{c})
		return in
	}
	tape := m.NewLogTape()
	tape.Append(one("a"))
	tape.Append(one("b"))
	view := tape.View()
	tape.Append(one("c"))
	view.Append(one("z"))
	if view.Len() != 3 || tape.Len() != 3 || !view.Delta(2).Equal(one("z")) || !tape.Delta(2).Equal(one("c")) {
		t.Fatalf("view and tape share appends: view %v, tape %v", view.Extend(nil), tape.Extend(nil))
	}
	prefix := tape.Extend(nil)[:2]
	marked := prefix[0]
	full := tape.Extend(prefix)
	if len(full) != 3 || !full[2].Equal(one("c")) {
		t.Fatalf("Extend: %v", full)
	}
	if full[0].Rel("i1") != marked.Rel("i1") {
		t.Fatal("Extend re-decoded the prefix it was given")
	}
}

// TestTapeDecodeNormalizesAndRefuses: bytes not written canonically still
// decode — tuples out of order or repeated are sorted and deduplicated —
// while a log this machine could not have written is refused and leaves
// the tape as it was.
func TestTapeDecodeNormalizesAndRefuses(t *testing.T) {
	m := core.MustParseProgram(tapeSrc)
	type rel struct {
		name   string
		arity  int
		consts []string
		count  int
	}
	record := func(rels ...rel) []byte {
		return codec.Canonical(func(e *codec.Encoder) {
			e.Uvarint(1)
			e.Uvarint(uint64(len(rels)))
			for _, r := range rels {
				e.Str(r.name)
				e.Uvarint(uint64(r.arity))
				e.Uvarint(uint64(r.count))
				for _, c := range r.consts {
					e.Str(c)
				}
			}
		})
	}
	decode := func(tape *core.LogTape, data []byte) error {
		rd, err := codec.NewDecoder().Record(data)
		if err != nil {
			t.Fatal(err)
		}
		return tape.Decode(rd)
	}
	tape := m.NewLogTape()
	if err := decode(tape, record(rel{"i2", 2, []string{"b", "a", "a", "b", "b", "a", "a", "a"}, 4}, rel{"o1", 1, nil, 0})); err != nil {
		t.Fatal(err)
	}
	want := relation.NewInstance()
	want.Add("i2", relation.Tuple{"a", "a"})
	want.Add("i2", relation.Tuple{"a", "b"})
	want.Add("i2", relation.Tuple{"b", "a"})
	if got := tape.Delta(0); !got.Equal(want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	canonical := codec.Canonical(func(e *codec.Encoder) { e.Sequence(relation.Sequence{want}) })
	if got := codec.Canonical(func(e *codec.Encoder) { tape.Encode(e) }); !bytes.Equal(got, canonical) {
		t.Fatalf("normalized tape encodes to %x, want %x", got, canonical)
	}
	for _, tc := range []struct {
		why  string
		data []byte
	}{
		{"not a logged", record(rel{"quiet", 1, []string{"a"}, 1})},
		{"not a logged", record(rel{"nowhere", 1, []string{"a"}, 1})},
		{"arity", record(rel{"i1", 2, []string{"a", "b"}, 1})},
		{"out of order", record(rel{"o1", 1, []string{"a"}, 1}, rel{"i1", 1, []string{"a"}, 1})},
		{"repeated", record(rel{"i1", 1, []string{"a"}, 1}, rel{"i1", 1, []string{"b"}, 1})},
		{"claims", record(rel{"i0", 0, nil, 2})},
		{"truncated", record(rel{"i3", 3, []string{"a", "b"}, 1})},
	} {
		if err := decode(tape, tc.data); err == nil {
			t.Errorf("%s: decoded %v", tc.why, tape.Delta(tape.Len()-1))
		} else if tc.why != "truncated" && !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: refused with %v", tc.why, err)
		}
		if tape.Len() != 1 {
			t.Fatalf("%s: a refused decode left %d steps", tc.why, tape.Len())
		}
	}
	if got := codec.Canonical(func(e *codec.Encoder) { tape.Encode(e) }); !bytes.Equal(got, canonical) {
		t.Fatalf("refused decodes changed the tape: %x", got)
	}
}
