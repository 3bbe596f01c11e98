package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/compose"
	"repro/internal/relation"
)

// ErrNotBinary reports a payload that does not start with the codec magic
// byte — the caller should fall back to its legacy (JSON) decoder.
var ErrNotBinary = errors.New("codec: not a binary record")

// Decoder holds one stream's intern table on the reading side. Feed it
// every record of the stream in order (Record); a record carrying the reset
// flag clears the table, so a decoder pointed at any stream boundary
// synchronizes by itself. Not safe for concurrent use.
type Decoder struct {
	table []string
}

// NewDecoder returns a decoder with an empty table.
func NewDecoder() *Decoder { return &Decoder{} }

// Reset clears the intern table.
func (d *Decoder) Reset() { d.table = d.table[:0] }

// TableLen returns the number of intern entries learned so far.
func (d *Decoder) TableLen() int { return len(d.table) }

// Record parses one record's envelope: magic, version, flags (applying a
// table reset), and intern definitions. It returns a Reader positioned at
// the record body. All errors are returned, never panicked — corrupt or
// truncated input is an expected condition for a decoder that fronts disk
// and network bytes.
func (d *Decoder) Record(payload []byte) (*Reader, error) {
	if !IsBinary(payload) {
		return nil, ErrNotBinary
	}
	if len(payload) < 3 {
		return nil, fmt.Errorf("codec: truncated envelope (%d bytes)", len(payload))
	}
	if payload[1] != Version {
		return nil, fmt.Errorf("codec: unsupported version %d (have %d)", payload[1], Version)
	}
	if payload[2]&flagReset != 0 {
		d.Reset()
	}
	r := &Reader{d: d, buf: payload, off: 3, reset: payload[2]&flagReset != 0}
	ndefs := r.Uvarint()
	if ndefs > uint64(len(payload)) {
		return nil, fmt.Errorf("codec: %d intern definitions in a %d-byte record", ndefs, len(payload))
	}
	for i := uint64(0); i < ndefs && r.err == nil; i++ {
		n := r.Uvarint()
		if r.err == nil && n > uint64(len(r.buf)-r.off) {
			r.fail(fmt.Errorf("definition of %d bytes with %d remaining", n, len(r.buf)-r.off))
			break
		}
		if r.err == nil {
			d.table = append(d.table, string(r.buf[r.off:r.off+int(n)]))
			r.off += int(n)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// Reader reads one record's body sequentially. Errors are sticky: after the
// first malformed read every subsequent read returns a zero value and End
// reports the error, so decode functions can read a whole schema and check
// once.
type Reader struct {
	d     *Decoder
	buf   []byte
	off   int
	err   error
	reset bool
}

// DidReset reports whether the record carried the table-reset flag.
func (r *Reader) DidReset() bool { return r.reset }

// Err returns the first error encountered (nil if none).
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: %w (offset %d)", err, r.off)
	}
}

// End checks that the body was fully consumed and returns the sticky error,
// if any. Trailing garbage is an error: every schema reads its record
// exactly.
func (r *Reader) End() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes after record body", len(r.buf)-r.off)
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errors.New("bad uvarint"))
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint and checks it fits a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		r.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail(errors.New("truncated bool"))
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail(fmt.Errorf("bad bool byte %#x", b))
		return false
	}
	return b == 1
}

// Str reads an interned string reference.
func (r *Reader) Str() string {
	id := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if id >= uint64(len(r.d.table)) {
		r.fail(fmt.Errorf("intern reference %d beyond table of %d", id, len(r.d.table)))
		return ""
	}
	return r.d.table[id]
}

// Bytes reads a length-prefixed raw byte string. The returned slice aliases
// the record payload.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("byte string of %d with %d remaining", n, len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Tuple reads a tuple written by Encoder.Tuple.
func (r *Reader) Tuple() relation.Tuple {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// Every constant reference costs at least one byte.
	if n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("tuple of %d with %d bytes remaining", n, len(r.buf)-r.off))
		return nil
	}
	t := make(relation.Tuple, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		t = append(t, relation.Const(r.Str()))
	}
	if r.err != nil {
		return nil
	}
	return t
}

// Fact reads a fact written by Encoder.Fact.
func (r *Reader) Fact() relation.Fact {
	name := r.Str()
	return relation.Fact{Rel: name, Args: r.Tuple()}
}

// Instance reads an instance written by Encoder.Instance.
func (r *Reader) Instance() relation.Instance {
	nNames := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if nNames > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("instance of %d relations with %d bytes remaining", nNames, len(r.buf)-r.off))
		return nil
	}
	in := relation.NewInstance()
	for i := uint64(0); i < nNames && r.err == nil; i++ {
		name := r.Str()
		arity := r.Int()
		nTuples := r.Uvarint()
		if r.err != nil {
			break
		}
		// A tuple of positive arity consumes >= arity bytes; a 0-ary
		// relation holds at most the single empty tuple. Both bounds stop
		// allocation bombs from claimed-but-absent tuples.
		if arity == 0 && nTuples > 1 {
			r.fail(fmt.Errorf("0-ary relation %q claims %d tuples", name, nTuples))
			break
		}
		if arity > 0 && nTuples > uint64(len(r.buf)-r.off)/uint64(arity) {
			r.fail(fmt.Errorf("relation %q claims %d tuples of arity %d with %d bytes remaining", name, nTuples, arity, len(r.buf)-r.off))
			break
		}
		if r.err == nil && in.Rel(name) != nil {
			// Canonical encoding never repeats a name; a duplicate could
			// also smuggle an arity mismatch past Rel.Add's panic.
			r.fail(fmt.Errorf("duplicate relation %q", name))
			break
		}
		rel := in.Ensure(name, arity)
		for j := uint64(0); j < nTuples && r.err == nil; j++ {
			t := make(relation.Tuple, 0, arity)
			for k := 0; k < arity && r.err == nil; k++ {
				t = append(t, relation.Const(r.Str()))
			}
			if r.err == nil {
				rel.Add(t)
			}
		}
	}
	if r.err != nil {
		return nil
	}
	return in
}

// Sequence reads a sequence written by Encoder.Sequence.
func (r *Reader) Sequence() relation.Sequence {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("sequence of %d with %d bytes remaining", n, len(r.buf)-r.off))
		return nil
	}
	seq := make(relation.Sequence, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		seq = append(seq, r.Instance())
	}
	if r.err != nil {
		return nil
	}
	return seq
}

// StepInputs reads a map written by Encoder.StepInputs.
func (r *Reader) StepInputs() compose.StepInputs {
	m := r.InstanceMap()
	if m == nil {
		return nil
	}
	return compose.StepInputs(m)
}

// InstanceMap reads a map written by Encoder.InstanceMap.
func (r *Reader) InstanceMap() map[string]relation.Instance {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("map of %d with %d bytes remaining", n, len(r.buf)-r.off))
		return nil
	}
	m := make(map[string]relation.Instance, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.Str()
		m[k] = r.Instance()
	}
	if r.err != nil {
		return nil
	}
	return m
}
