package codec

import (
	"bytes"
	"testing"

	"repro/internal/relation"
)

func sampleInstance() relation.Instance {
	in := relation.NewInstance()
	in.Add("order", relation.Tuple{"alice", "book", "3"})
	in.Add("order", relation.Tuple{"bob", "book", "1"})
	in.Add("paid", relation.Tuple{"alice"})
	in.Ensure("empty", 2)
	in.Ensure("flag", 0).Add(relation.Tuple{})
	return in
}

func TestInstanceRoundTrip(t *testing.T) {
	e := NewEncoder()
	want := sampleInstance()
	e.Instance(want)
	rec := e.Finish()

	d := NewDecoder()
	r, err := d.Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Instance()
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, want)
	}
	// Empty relations encode as absent, matching the JSON wire form — the
	// two wires must agree for digests to survive transcoding.
	if got.Rel("empty") != nil {
		t.Fatalf("empty relation should be absent after a round trip, got %v", got.Rel("empty"))
	}
}

func TestInterningSharesAcrossRecords(t *testing.T) {
	e := NewEncoder()
	in := sampleInstance()
	e.Instance(in)
	first := e.Finish()
	e.Instance(in)
	second := e.Finish()
	if len(second) >= len(first) {
		t.Fatalf("second record (%dB) should be smaller than the first (%dB): constants were re-defined", len(second), len(first))
	}

	d := NewDecoder()
	for i, rec := range [][]byte{first, second} {
		r, err := d.Record(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got := r.Instance()
		if err := r.End(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !got.Equal(in) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if d.TableLen() != e.TableLen() {
		t.Fatalf("table drift: decoder %d, encoder %d", d.TableLen(), e.TableLen())
	}
}

func TestResetFlagResynchronizesDecoder(t *testing.T) {
	e := NewEncoder()
	in := sampleInstance()
	e.Instance(in)
	e.Finish() // a record the decoder never sees
	e.Reset()
	e.Instance(in)
	rec := e.Finish()

	d := NewDecoder()
	r, err := d.Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !r.DidReset() {
		t.Fatal("first record after Reset should carry the reset flag")
	}
	got := r.Instance()
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(in) {
		t.Fatal("decode after reset mismatch")
	}
}

func TestCanonicalIsStreamIndependent(t *testing.T) {
	in := sampleInstance()
	a := Canonical(func(e *Encoder) { e.Instance(in) })

	// The same value encoded mid-stream differs (references, no defs)...
	e := NewEncoder()
	e.Instance(in)
	e.Finish()
	e.Instance(in)
	mid := e.Finish()
	if bytes.Equal(a, mid) {
		t.Fatal("mid-stream encoding should differ from canonical")
	}
	// ...but Canonical is reproducible.
	b := Canonical(func(e *Encoder) { e.Instance(in.Clone()) })
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encoding not deterministic:\n%x\n%x", a, b)
	}
}

func TestDecoderRejectsCorruptInput(t *testing.T) {
	e := NewEncoder()
	e.Instance(sampleInstance())
	rec := e.Finish()

	cases := map[string][]byte{
		"empty":       {},
		"not binary":  []byte(`{"t":"step"}`),
		"bad version": {Magic, 99, 0},
		"truncated":   rec[:len(rec)-3],
		"def overrun": {Magic, Version, 0, 1, 200},
		"huge defs":   {Magic, Version, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"trailing":    append(append([]byte{}, rec...), 0xAA),
		"bad ref":     append([]byte{Magic, Version, 0, 0}, 0x30), // reference 0x30 with empty table
	}
	for name, data := range cases {
		d := NewDecoder()
		r, err := d.Record(data)
		if err != nil {
			continue // rejected at the envelope: good
		}
		_ = r.Instance()
		if name == "not binary" {
			t.Fatal("JSON payload parsed as binary")
		}
		if err := r.End(); err == nil {
			t.Fatalf("%s: corrupt input decoded cleanly", name)
		}
	}
}

func TestTruncationAtEveryByte(t *testing.T) {
	e := NewEncoder()
	e.Instance(sampleInstance())
	e.Sequence(relation.Sequence{sampleInstance(), relation.NewInstance()})
	rec := e.Finish()
	for i := 0; i < len(rec); i++ {
		d := NewDecoder()
		r, err := d.Record(rec[:i])
		if err != nil {
			continue
		}
		_ = r.Instance()
		_ = r.Sequence()
		if err := r.End(); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", i, len(rec))
		}
	}
}

func TestScalarsRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.Str("hello")
	e.Bytes([]byte{1, 2, 3})
	e.Tuple(relation.Tuple{"a", "b"})
	e.Fact(relation.Fact{Rel: "r", Args: relation.Tuple{"a"}})
	rec := e.Finish()

	d := NewDecoder()
	r, err := d.Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint: %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if s := r.Str(); s != "hello" {
		t.Fatalf("str: %q", s)
	}
	if s := r.Str(); s != "hello" {
		t.Fatalf("str: %q", s)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", b)
	}
	if tp := r.Tuple(); !tp.Equal(relation.Tuple{"a", "b"}) {
		t.Fatalf("tuple: %v", tp)
	}
	if f := r.Fact(); f.Rel != "r" || !f.Args.Equal(relation.Tuple{"a"}) {
		t.Fatalf("fact: %v", f)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}
