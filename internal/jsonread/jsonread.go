// Package jsonread reads JSON in one pass over a byte slice, for decoders
// that build their values straight from the request bytes instead of
// through reflection. It accepts what encoding/json accepts and yields the
// same values:
//
//   - a string of printable ASCII without escapes is copied out once; any
//     other string literal (an escape, a control byte, a byte ≥ 0x80) is
//     unquoted by encoding/json itself, so replacement of bad UTF-8,
//     surrogate pairs and the refusal of raw control bytes match exactly;
//   - object keys are matched to names as encoding/json matches struct
//     fields (Match);
//   - a skipped value is fully validated, nesting depth included.
//
// Errors are sticky: after the first one every read returns a zero value
// and More reports false, so a decoder loop ends by itself and checks Err
// once.
package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// maxDepth is encoding/json's nesting limit; a deeper value is refused.
const maxDepth = 10000

// Reader reads JSON values from a byte slice.
type Reader struct {
	b     []byte
	i     int
	depth int
	err   error
}

// Reset makes r read b from its start.
func (r *Reader) Reset(b []byte) { *r = Reader{b: b} }

// Err returns the first error met, if any.
func (r *Reader) Err() error { return r.err }

// Off returns the offset of the next unread byte.
func (r *Reader) Off() int { return r.i }

// Fail records err as the reader's error, unless it has one, and stops
// it: a decoder refuses a value this way as the reader refuses bad syntax.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.i = len(r.b)
}

// unexpected fails on the byte at the read position (or on the end).
func (r *Reader) unexpected() {
	if r.i >= len(r.b) {
		r.Fail(errors.New("unexpected end of JSON input"))
		return
	}
	r.Fail(fmt.Errorf("invalid character %q at offset %d", r.b[r.i], r.i))
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) Peek() byte {
	for r.i < len(r.b) {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return c
		}
	}
	return 0
}

// End reports whether only whitespace is left.
func (r *Reader) End() bool {
	r.Peek()
	return r.err == nil && r.i == len(r.b)
}

// Open consumes c ('{' or '['), which opens a container whose members
// More then walks.
func (r *Reader) Open(c byte) bool {
	if r.err != nil {
		return false
	}
	if r.Peek() != c {
		r.unexpected()
		return false
	}
	r.i++
	if r.depth++; r.depth > maxDepth {
		r.Fail(errors.New("exceeded max depth"))
		return false
	}
	return true
}

// More reports whether the open container holds another member, n being
// the number already read. It consumes the separating comma, or the
// closing byte close when it reports false.
func (r *Reader) More(n int, close byte) bool {
	if r.err != nil {
		return false
	}
	c := r.Peek()
	if c == close {
		r.i++
		r.depth--
		return false
	}
	if n > 0 {
		if c != ',' {
			r.unexpected()
			return false
		}
		r.i++
	}
	return true
}

// Null consumes a null literal and reports whether there was one.
func (r *Reader) Null() bool {
	if r.err != nil || r.Peek() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

func (r *Reader) literal(lit string) {
	if !bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
		r.unexpected()
		return
	}
	r.i += len(lit)
}

// str reads a string literal. plain reports that b[s+1:e-1] is its value;
// otherwise b[s:e] is the literal for encoding/json to unquote.
func (r *Reader) str() (s, e int, plain bool) {
	if r.err != nil {
		return 0, 0, true
	}
	if r.Peek() != '"' {
		r.unexpected()
		return 0, 0, true
	}
	s, plain = r.i, true
	for j := s + 1; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			r.i = j + 1
			return s, j + 1, plain
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot close the literal
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	r.i = len(r.b)
	r.unexpected()
	return 0, 0, true
}

func (r *Reader) unquote(lit []byte) string {
	var v string
	if err := json.Unmarshal(lit, &v); err != nil {
		r.Fail(err)
	}
	return v
}

// Str reads a string value.
func (r *Reader) Str() string {
	s, e, plain := r.str()
	if r.err != nil {
		return ""
	}
	if plain {
		return string(r.b[s+1 : e-1])
	}
	return r.unquote(r.b[s:e])
}

// Key reads an object key and its colon. A plain key is returned in place:
// the bytes are valid as long as the input is.
func (r *Reader) Key() []byte {
	s, e, plain := r.str()
	if r.err != nil {
		return nil
	}
	k := r.b[s+1 : e-1]
	if !plain {
		k = []byte(r.unquote(r.b[s:e]))
	}
	if r.Peek() != ':' {
		r.unexpected()
		return nil
	}
	r.i++
	return k
}

// Match reports whether key selects the field name the way encoding/json
// selects a struct field: an exact match, else a case-insensitive one.
func Match(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// Slice reads an array into s as encoding/json decodes into a slice:
// element i decodes over s[i], whatever an earlier array left there (elem
// reads one element into its slot), the slice ends with the array, and
// null is a nil slice.
func Slice[T any](r *Reader, s []T, elem func(*Reader, *T)) []T {
	if r.Null() {
		return nil
	}
	if !r.Open('[') {
		return s
	}
	i := 0
	for ; r.More(i, ']'); i++ {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		elem(r, &s[i])
	}
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

// number reads a number literal and reports whether it is an integer
// (no fraction, no exponent).
func (r *Reader) number() (s int, integer bool) {
	b, i := r.b, r.i
	s, integer = i, true
	digits := func() bool {
		k := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > k
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(b) && b[i] == '.' {
		i, integer = i+1, false
		ok = digits()
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i, integer = i+1, false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	r.i = i
	if !ok {
		r.unexpected()
	}
	return s, integer
}

// Int reads an integer that fits an int, as encoding/json decodes into one.
func (r *Reader) Int() int {
	r.Peek()
	s, integer := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(r.b[s:r.i]), 10, strconv.IntSize)
	if !integer || err != nil {
		r.Fail(fmt.Errorf("number %s at offset %d is not an int", r.b[s:r.i], s))
		return 0
	}
	return int(n)
}

// Skip reads and discards one value, validating it.
func (r *Reader) Skip() {
	if r.err != nil {
		return
	}
	switch c := r.Peek(); {
	case c == '{':
		r.Open('{')
		for n := 0; r.More(n, '}'); n++ {
			r.Key()
			r.Skip()
		}
	case c == '[':
		r.Open('[')
		for n := 0; r.More(n, ']'); n++ {
			r.Skip()
		}
	case c == '"':
		if s, e, plain := r.str(); !plain {
			r.unquote(r.b[s:e])
		}
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.unexpected()
	}
}
