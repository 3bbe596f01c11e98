package relation

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// instanceJSON is the wire form of an Instance: relation name to list of
// tuples (each a list of constant strings). Propositional relations that
// hold the empty tuple serialize as a single empty tuple.
type instanceJSON map[string][][]string

// MarshalJSON encodes the instance deterministically.
func (in Instance) MarshalJSON() ([]byte, error) {
	m := make(instanceJSON)
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

// UnmarshalJSON decodes the wire form produced by MarshalJSON. It refuses
// a constant containing NUL, the byte Tuple.Key separates constants with:
// two distinct tuples such a constant let through could share a key, and
// a relation would then hold one of them and silently drop the other.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var m instanceJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := NewInstance()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := m[name]
		arity := -1
		for _, row := range rows {
			if arity == -1 {
				arity = len(row)
			} else if len(row) != arity {
				return fmt.Errorf("relation %s: mixed arities %d and %d", name, arity, len(row))
			}
			t := make(Tuple, len(row))
			for i, c := range row {
				if strings.IndexByte(c, 0) >= 0 {
					return fmt.Errorf("relation %s: constant %q contains NUL", name, c)
				}
				t[i] = Const(c)
			}
			out.Ensure(name, arity).Add(t)
		}
		if len(rows) == 0 {
			// Preserve an explicitly-listed empty relation with unknown
			// arity as arity 0; this only affects printing.
			out.Ensure(name, 0)
		}
	}
	*in = out
	return nil
}
