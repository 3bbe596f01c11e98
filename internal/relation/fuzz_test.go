package relation

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// oracleInstance is the decode ReadInstance replaced: encoding/json into
// the map form, then the build step with its refusals. decodeErr reports a
// refusal of encoding/json itself; buildErr one of the build step, whose
// message ReadInstance must repeat.
func oracleInstance(data []byte) (in Instance, decodeErr, buildErr error) {
	var m map[string][][]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err, nil
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
				return nil, nil, fmt.Errorf("relation %s: mixed arities %d and %d", name, arity, len(row))
			}
			t := make(Tuple, len(row))
			for i, c := range row {
				if strings.IndexByte(c, 0) >= 0 {
					return nil, nil, fmt.Errorf("relation %s: constant %q contains NUL", name, c)
				}
				t[i] = Const(c)
			}
			out.Ensure(name, arity).Add(t)
		}
		if len(rows) == 0 {
			out.Ensure(name, 0)
		}
	}
	return out, nil, nil
}

// sameInstance reports whether a and b hold the same relation names, each
// of the same arity and with the same tuples — empty relations included,
// which Instance.Equal identifies with absent ones.
func sameInstance(a, b Instance) bool {
	if len(a) != len(b) || !a.Equal(b) {
		return false
	}
	for name, r := range a {
		if s, ok := b[name]; !ok || s.Arity() != r.Arity() {
			return false
		}
	}
	return true
}

// instanceSeeds are wire forms, hostile ones included; `go test` runs each
// as a case of FuzzInstanceJSON.
var instanceSeeds = []string{
	`{}`, `null`, ` {"order":[["time"]]} `,
	`{"pay":[["time","855"]],"deliver":[["time"]]}`,
	`{"price":[["time","855"],["newsweek","845"]],"available":[["time"],["newsweek"]]}`,
	`{"r":[]}`, `{"r":null}`, `{"r":[[]]}`, `{"r":[[],[]]}`, `{"r":[null]}`, `{"r":[null,["a"]]}`,
	`{"r":[["a",null]]}`, `{"r":[["a"],["a"]]}`, `{"r":[["a"],["a","b"]]}`,
	`{"r":[["a\u0000b","c"]]}`, `{"r":[["\u0000"]]}`, `{"r":[["a"],["b","c"]],"q":[["\u0000"]]}`,
	`{"r":[["\u0000"]],"r":[["ok"]]}`, `{"r":[["ok"]],"r":[["\u0000"]]}`, `{"r":[["a"]],"r":null}`,
	`{"b":[["x"],["x","y"]],"a":[["\u0000"]]}`,
	`{"r":[["été"],["cafÃ"],["😀"],["\ud800"],["tab\there"]]}`,
	"{\"r\":[[\"\xff\xfe\"]]}", "{\"r\":[[\"caf\xc3\xa9\"]]}", "{\"r\":[[\"raw\x01ctl\"]]}",
	`{"rA":[["a"]],"rA":[["b"]]}`, `{"\"q\"":[["\\"]]}`,
	`{"r":[[1]]}`, `{"r":[["a",true]]}`, `{"r":["a"]}`, `{"r":{"a":1}}`, `{"r":[[{"x":[]}]]}`,
	`[]`, `"x"`, `5`, `true`, `nul`, `{"r":[["a"]]} x`, `{"r":[["a"]],}`, `{"r":[["a"],]}`,
	`{"r" [["a"]]}`, `{r:[["a"]]}`, `{"r":[["a"]]`, `{"r":[["a\x"]]}`, `{"r":[["\u12"]]}`,
	`{"r":[[` + strings.Repeat("[", 40) + `]]}`,
	`{"r":[["x","1"],["y","2"],["z","3"],["w","4"],["v","5"],["u","6"],["t","7"],["s","8"],["q","9"],["x","1"]]}`,
}

// FuzzInstanceJSON differentially checks ReadInstance against encoding/json
// plus the build step it replaced: both accept or both refuse, an accepted
// input gives the same relations (names, arities, tuples), and a build
// refusal keeps its message.
func FuzzInstanceJSON(f *testing.F) {
	for _, s := range instanceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, decodeErr, buildErr := oracleInstance(data)
		var got Instance
		err := got.UnmarshalJSON(data)
		switch {
		case decodeErr != nil:
			if err == nil {
				t.Fatalf("%q: accepted as %v; encoding/json refuses it: %v", data, got, decodeErr)
			}
		case buildErr != nil:
			if err == nil || err.Error() != buildErr.Error() {
				t.Fatalf("%q: error %v, want %v", data, err, buildErr)
			}
		case err != nil:
			t.Fatalf("%q: refused (%v); encoding/json gives %v", data, err, want)
		case !sameInstance(got, want):
			t.Fatalf("%q: decoded %v, encoding/json gives %v", data, got, want)
		}
	})
}
