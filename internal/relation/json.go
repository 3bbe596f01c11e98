package relation

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/jsonread"
)

// MarshalJSON encodes the instance deterministically in its wire form:
// relation name to list of tuples (each a list of constant strings).
// Propositional relations that hold the empty tuple serialize as a single
// empty tuple.
func (in Instance) MarshalJSON() ([]byte, error) {
	m := make(map[string][][]string)
	for _, name := range in.Names() {
		r := in[name]
		if r.Len() == 0 {
			continue
		}
		rows := make([][]string, 0, r.Len())
		for _, t := range r.Tuples() {
			row := make([]string, len(t))
			for i, c := range t {
				row[i] = string(c)
			}
			rows = append(rows, row)
		}
		m[name] = rows
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON (see
// ReadInstance).
func (in *Instance) UnmarshalJSON(data []byte) error {
	var r jsonread.Reader
	r.Reset(data)
	out, err := ReadInstance(&r)
	if err == nil && !r.End() {
		err = fmt.Errorf("relation: data after the instance at offset %d", r.Off())
	}
	if err != nil {
		return err
	}
	*in = out
	return nil
}

// ReadInstance reads one instance in its wire form, building relations and
// tuples straight from the bytes. It decodes what encoding/json decodes
// into a map[string][][]string, with the same values: a repeated relation
// name keeps its last list, null stands for an empty instance, list or row
// (a null constant is ""), and an explicitly empty relation gets arity 0.
//
// It refuses a relation of mixed arities, and a constant containing NUL,
// the byte Tuple.Key separates constants with: two distinct tuples such a
// constant let through could share a key, and a relation would then hold
// one of them and silently drop the other. When several relations are
// refused, the error names the one with the smallest name; a refused list
// that a later one of the same name replaces is no error. A refusal is
// also the reader's error, so a decoder reading on stops there.
func ReadInstance(r *jsonread.Reader) (Instance, error) {
	if r.Null() {
		return NewInstance(), nil
	}
	if !r.Open('{') {
		return nil, r.Err()
	}
	in := NewInstance()
	var bad map[string]error
	for n := 0; r.More(n, '}'); n++ {
		name := string(r.Key())
		rel, err := readRel(r, name)
		in[name] = rel
		if err != nil {
			if bad == nil {
				bad = make(map[string]error)
			}
			bad[name] = err
		} else {
			delete(bad, name)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(bad) > 0 {
		names := make([]string, 0, len(bad))
		for name := range bad {
			names = append(names, name)
		}
		sort.Strings(names)
		r.Fail(bad[names[0]])
		return nil, r.Err()
	}
	return in, nil
}

// readRel reads one relation's list of rows. The error is the list's first
// refusal in row order; the rows are read to the end regardless.
func readRel(r *jsonread.Reader, name string) (*Rel, error) {
	if r.Null() || !r.Open('[') {
		return NewRel(0), nil
	}
	var (
		rel *Rel
		err error
		buf [8]Const
	)
	for n := 0; r.More(n, ']'); n++ {
		row := buf[:0]
		if !r.Null() && r.Open('[') {
			for m := 0; r.More(m, ']'); m++ {
				var c string
				if !r.Null() {
					c = r.Str()
				}
				row = append(row, Const(c))
			}
		}
		if err != nil || r.Err() != nil {
			continue
		}
		if rel == nil {
			rel = NewRel(len(row))
		} else if len(row) != rel.arity {
			err = fmt.Errorf("relation %s: mixed arities %d and %d", name, rel.arity, len(row))
			continue
		}
		for _, c := range row {
			if strings.IndexByte(string(c), 0) >= 0 {
				err = fmt.Errorf("relation %s: constant %q contains NUL", name, c)
				break
			}
		}
		if err == nil {
			rel.Add(append(make(Tuple, 0, len(row)), row...))
		}
	}
	if rel == nil {
		rel = NewRel(0)
	}
	return rel, err
}
