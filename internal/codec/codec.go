// Package codec is the binary wire-and-disk encoding of the serving stack:
// a versioned, length-prefixed format for relational values (constants,
// tuples, relations, instances, sequences) with a per-stream constant
// intern table. Everything durable in this system is relational and highly
// repetitive — the same constants recur across tuples, steps, and log
// deltas (the cumulated-input shape of Spocus state) — so the codec assigns
// each distinct constant a varint ID on first use and references it by ID
// thereafter. The intern table is part of the stream itself: every record
// carries the table entries it introduces, so any prefix of a stream is
// self-describing and a torn tail never strands a reader.
//
// Record envelope (what Encoder.Finish returns and Decoder.Record parses):
//
//	[0]  magic 0xC5            — cannot begin a JSON document, so binary and
//	                             JSON records coexist in one stream and are
//	                             told apart per record (see IsBinary)
//	[1]  version (currently 1)
//	[2]  flags: bit0 = table reset — set on the first record after the
//	     encoder started or Reset; a decoder seeing it clears its table, so
//	     scans that begin at a stream boundary (a fresh WAL segment, a
//	     snapshot file, a re-keyed replication stream) resynchronize without
//	     out-of-band signalling
//	[..] uvarint: number of intern definitions introduced by this record
//	[..] that many length-prefixed strings; IDs are assigned sequentially
//	     in stream order (the stream's first-ever definition is ID 0)
//	[..] body: schema-driven, written by the caller through the primitive
//	     methods; all strings are varint table references
//
// The schemas of the session layer's records (WAL records, snapshot images,
// ship images) are built from these primitives in internal/session, which
// owns those types; this package owns framing, interning, and the
// relational value encodings shared by all of them.
//
// Encoders are strictly stream-scoped: every record started MUST be
// finished and delivered to the stream in order, or the encoder Reset —
// interleaving or dropping records desynchronizes the table. The intended
// owners (a shard's WAL writer, a snapshot writer, a replication stream)
// are all single-writer by construction.
package codec

import (
	"encoding/binary"
	"sort"

	"repro/internal/compose"
	"repro/internal/relation"
)

const (
	// Magic is the first byte of every binary record. JSON payloads begin
	// with '{' (0x7B), so one byte distinguishes the formats.
	Magic = 0xC5
	// Version is the current format version. Decoders reject anything else.
	Version = 1

	flagReset = 0x01
)

// IsBinary reports whether payload is a codec record (as opposed to a
// legacy JSON record). Safe on empty and truncated input.
func IsBinary(payload []byte) bool {
	return len(payload) > 0 && payload[0] == Magic
}

// Encoder builds binary records against one stream's intern table.
// Not safe for concurrent use.
type Encoder struct {
	table map[string]uint64
	next  uint64
	fresh bool     // the next Finish carries the reset flag
	defs  []string // strings first interned by the record under construction
	body  []byte
	tmp   [binary.MaxVarintLen64]byte
}

// NewEncoder returns an encoder with an empty table; its first record will
// carry the reset flag.
func NewEncoder() *Encoder {
	return &Encoder{table: make(map[string]uint64), fresh: true}
}

// Reset clears the intern table, starting a new stream: the next record
// carries the reset flag and redefines every constant it uses.
func (e *Encoder) Reset() {
	clear(e.table)
	e.next = 0
	e.fresh = true
	e.defs = e.defs[:0]
	e.body = e.body[:0]
}

// TableLen returns the number of intern entries assigned so far (entries
// pending in an unfinished record included). Streams use it as a cheap
// consistency fingerprint between an encoder and a remote decoder.
func (e *Encoder) TableLen() int { return int(e.next) }

// Finish seals the record under construction and returns its encoded form
// (envelope + pending definitions + body). The encoder is ready for the
// next record afterwards; the returned slice is freshly allocated.
func (e *Encoder) Finish() []byte {
	size := 3 + binary.MaxVarintLen64 + len(e.body)
	for _, d := range e.defs {
		size += binary.MaxVarintLen64 + len(d)
	}
	out := make([]byte, 0, size)
	flags := byte(0)
	if e.fresh {
		flags |= flagReset
	}
	out = append(out, Magic, Version, flags)
	out = binary.AppendUvarint(out, uint64(len(e.defs)))
	for _, d := range e.defs {
		out = binary.AppendUvarint(out, uint64(len(d)))
		out = append(out, d...)
	}
	out = append(out, e.body...)
	e.fresh = false
	e.defs = e.defs[:0]
	e.body = e.body[:0]
	return out
}

// Uvarint appends an unsigned varint to the record body.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.body = append(e.body, e.tmp[:n]...)
}

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.body = append(e.body, 1)
	} else {
		e.body = append(e.body, 0)
	}
}

// Str appends an interned string reference, defining the string in the
// stream's table if this is its first use.
func (e *Encoder) Str(s string) {
	id, ok := e.table[s]
	if !ok {
		id = e.next
		e.next++
		e.table[s] = id
		e.defs = append(e.defs, s)
	}
	e.Uvarint(id)
}

// Bytes appends a length-prefixed raw byte string (not interned) — used for
// embedded blobs such as JSON-encoded network specs.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.body = append(e.body, b...)
}

// Tuple appends a tuple: its length, then one interned reference per
// constant.
func (e *Encoder) Tuple(t relation.Tuple) {
	e.Uvarint(uint64(len(t)))
	for _, c := range t {
		e.Str(string(c))
	}
}

// Fact appends one (relation name, tuple) fact.
func (e *Encoder) Fact(f relation.Fact) {
	e.Str(f.Rel)
	e.Tuple(f.Args)
}

// Instance appends a relation instance in canonical order: relation names
// sorted, tuples in each relation sorted (relation.Rel.Tuples sorts).
// Empty relations are preserved with their arity.
func (e *Encoder) Instance(in relation.Instance) {
	// Like the JSON wire form, an empty relation encodes as absent: the two
	// wires must agree so digests survive transcoding either way.
	names := make([]string, 0, len(in))
	for _, name := range in.Names() { // sorted
		if in.Rel(name).Len() > 0 {
			names = append(names, name)
		}
	}
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		r := in.Rel(name)
		e.Str(name)
		e.Uvarint(uint64(r.Arity()))
		tuples := r.Tuples() // sorted
		e.Uvarint(uint64(len(tuples)))
		for _, t := range tuples {
			for _, c := range t {
				e.Str(string(c))
			}
		}
	}
}

// Sequence appends a sequence of instances.
func (e *Encoder) Sequence(seq relation.Sequence) {
	e.Uvarint(uint64(len(seq)))
	for _, in := range seq {
		e.Instance(in)
	}
}

// StepInputs appends a node→instance map in sorted-name order — the
// network layer's per-node input/output/state shape.
func (e *Encoder) StepInputs(m compose.StepInputs) {
	e.InstanceMap(m)
}

// InstanceMap appends a string→instance map in sorted-key order.
func (e *Encoder) InstanceMap(m map[string]relation.Instance) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.Instance(m[k])
	}
}

// Canonical encodes one record with a fresh encoder and returns its bytes.
// Because interning assigns IDs in first-use order and all composite
// encodings iterate in sorted order, the result is a deterministic,
// stream-independent function of the value — the digest form used by
// handoff.
func Canonical(fn func(*Encoder)) []byte {
	e := NewEncoder()
	fn(e)
	return e.Finish()
}
