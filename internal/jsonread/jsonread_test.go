package jsonread

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReader checks the reader against encoding/json on any input: Skip
// accepts exactly the valid JSON texts (nesting limit included), and a
// string or number reads as json.Unmarshal reads it into a string or an
// int.
func FuzzReader(f *testing.F) {
	for _, s := range []string{
		`null`, `true`, `false`, `0`, `-0`, `01`, `1.`, `-`, `1e`, `1.5e+3`, `-12`, `9223372036854775808`,
		`""`, `"a"`, `"é😀"`, `"\ud800"`, "\"\xff\"", "\"\x01\"", `"\x"`, `"\u12"`, `"\"`,
		`[]`, `[1,]`, `[,1]`, `[1 2]`, `{}`, `{"a":1,}`, `{"a" 1}`, `{a:1}`, `{"a":[{"b":null}]}`, ` [ 1 , "x" ] `,
		strings.Repeat("[", 40) + strings.Repeat("]", 40),
		`nul`, `tru`, `[1] x`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reader
		r.Reset(data)
		r.Skip()
		if got, want := r.Err() == nil && r.End(), json.Valid(data); got != want {
			t.Fatalf("%q: Skip accepts %v, json.Valid %v (%v)", data, got, want, r.Err())
		}
		var s string
		if json.Unmarshal(data, &s) == nil && !strings.HasPrefix(strings.TrimSpace(string(data)), "null") {
			r.Reset(data)
			if got := r.Str(); r.Err() != nil || got != s {
				t.Fatalf("%q: Str reads %q (%v), encoding/json %q", data, got, r.Err(), s)
			}
		}
		var n int
		wantErr := json.Unmarshal(data, &n)
		r.Reset(data)
		got := r.Int()
		if r.Err() == nil && !r.End() {
			return // a number followed by more: not a text encoding/json reads
		}
		ok := wantErr == nil && !strings.HasPrefix(strings.TrimSpace(string(data)), "null")
		if (r.Err() == nil) != ok || ok && got != n {
			t.Fatalf("%q: Int reads %d (%v), encoding/json %d (%v)", data, got, r.Err(), n, wantErr)
		}
	})
}

// TestMaxDepth: values nest as deep as encoding/json lets them, and no
// deeper.
func TestMaxDepth(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		data := []byte(`{"a":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
		var r Reader
		r.Reset(data)
		r.Skip()
		if got, want := r.Err() == nil && r.End(), json.Valid(data); got != want {
			t.Errorf("depth %d: Skip accepts %v, json.Valid %v", depth, got, want)
		}
	}
}

// TestMatch: a key selects a name exactly when encoding/json decodes it
// into a struct field tagged with that name.
func TestMatch(t *testing.T) {
	for _, c := range [][2]string{
		{"steps", "steps"}, {"STEPS", "steps"}, {"Session", "session"}, {"ſteps", "steps"},
		{"Key", "key"}, {"step", "steps"}, {"stepss", "steps"}, {"kéy", "key"},
	} {
		typ := reflect.StructOf([]reflect.StructField{{Name: "F", Type: reflect.TypeOf(0), Tag: reflect.StructTag(`json:"` + c[1] + `"`)}})
		v := reflect.New(typ)
		if err := json.Unmarshal([]byte(`{"`+c[0]+`":1}`), v.Interface()); err != nil {
			t.Fatal(err)
		}
		if want := v.Elem().Field(0).Int() == 1; Match([]byte(c[0]), c[1]) != want {
			t.Errorf("Match(%q, %q) = %v, encoding/json %v", c[0], c[1], !want, want)
		}
	}
}
