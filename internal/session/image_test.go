package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/codec"
	"repro/internal/relation"
)

// all returns the whole key table as a map.
func (t *keyTable) all() map[string]int {
	m := t.settled.asMap()
	for k, seq := range t.fresh {
		m[k] = seq
	}
	return m
}

// replaceSrc is a general (non-Spocus) machine: beside two cumulative
// relations it keeps last, which the state plan replaces every step — or
// empties, on a step without edges.
const replaceSrc = `
transducer replace
schema
  input: edge/2;
  state: past-edge/2, node/1, last/1;
  output: again/1;
  log: edge, again;
state rules
  past-edge(X,Y) +:- edge(X,Y);
  node(X) +:- edge(X,Y);
  node(Y) +:- edge(X,Y);
  last(X) :- edge(X,Y);
output rules
  again(X) :- edge(X,Y), last(X);
`

func edgeInput(r *rand.Rand) relation.Instance {
	in := relation.NewInstance()
	rel := in.Ensure("edge", 2)
	for n := r.Intn(4); n > 0; n-- {
		rel.Add(relation.Tuple{relation.Const(strconv.Itoa(r.Intn(40))), relation.Const(strconv.Itoa(r.Intn(40)))})
	}
	return in
}

// TestImagesEncodeFromResidentState drives sessions through random keyed
// steps, taking images at random points and now and then restoring the
// session from its image and carrying on. Every image — snapshot and ship —
// must be byte-equal to the one encoded from the materialized state
// (Stepper.State), the decoded log and the key table as a map sorted
// whole, which is how images were written before they were encoded from
// the resident rows and the settled key table. An image taken earlier must
// still encode to the same bytes after later steps. Half the runs use
// tapeSrc, a Spocus machine whose state only grows; the other half use
// replaceSrc, whose state plan replaces a relation every step.
func TestImagesEncodeFromResidentState(t *testing.T) {
	db := relation.NewInstance()
	db.Add("d", relation.Tuple{"a"})
	db.Add("d", relation.Tuple{"zz"})
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		req, input := &OpenRequest{Src: tapeSrc, DB: db}, tapeInput
		if seed%2 == 0 {
			req, input = &OpenRequest{Src: replaceSrc}, edgeInput
		}
		s, err := newSession(fmt.Sprintf("img-%d", seed), req)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]int
		type taken struct {
			img  Image
			data []byte
		}
		var earlier []taken
		check := func(step int) {
			t.Helper()
			img := snapOf(s)
			got := encodeImage(t, &img)
			if want := sequenceImage(kindImage, "", &img, s.run.State(), s.log(), keys); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: the image differs from the one encoded from the materialized state", seed, step)
			}
			ship, err := EncodeStateExport(&StateExport{Image: &img, Digest: s.logDigest()})
			if err != nil {
				t.Fatal(err)
			}
			if want := sequenceImage(kindStateExport, s.logDigest(), &img, s.run.State(), s.log(), keys); !bytes.Equal(ship, want) {
				t.Fatalf("seed %d step %d: the ship image differs from the one encoded from the materialized state", seed, step)
			}
			earlier = append(earlier, taken{img, got})
		}
		for step := 1; step <= 40; step++ {
			in := input(r)
			if err := s.validateInput(in); err != nil {
				t.Fatal(err)
			}
			key := ""
			if r.Intn(2) == 0 {
				key = "k" + strconv.Itoa(r.Intn(200))
			}
			if _, dup := keys[key]; dup {
				key = ""
			}
			res := s.apply(in)
			s.keys.note(key, res.Seq)
			if key != "" {
				if keys == nil {
					keys = make(map[string]int)
				}
				keys[key] = res.Seq
			}
			switch r.Intn(8) {
			case 0, 1:
				check(step)
			case 2:
				check(step)
				_, img, err := decodeSnapPayload(codec.NewDecoder(), earlier[len(earlier)-1].data, false)
				if err != nil {
					t.Fatal(err)
				}
				if s, err = img.restore(); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(40)
		for i, e := range earlier {
			if got := encodeImage(t, &e.img); !bytes.Equal(got, e.data) {
				t.Fatalf("seed %d: image %d encodes differently after later steps", seed, i)
			}
		}
		if got := s.keys.all(); !reflect.DeepEqual(got, keys) && len(keys) > 0 {
			t.Fatalf("seed %d: key table %v, want %v", seed, got, keys)
		}
	}
}

// TestKeyTableMatchesMap notes keys into a table and a plain map side by
// side, settling the table at random points: every lookup agrees with the
// map, a key already held — settled or not — keeps the step it first
// produced, and the settled list is the map's keys in order, each once.
func TestKeyTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var kt keyTable
		want := map[string]int{}
		for seq := 1; seq <= 300; seq++ {
			key := "k" + strconv.Itoa(r.Intn(150))
			kt.note(key, seq)
			if _, ok := want[key]; !ok {
				want[key] = seq
			}
			if r.Intn(20) == 0 {
				l := kt.settle()
				if len(kt.fresh) != 0 {
					t.Fatalf("seed %d: settle left %d fresh keys", seed, len(kt.fresh))
				}
				if !sort.SliceIsSorted(l, func(i, j int) bool { return l[i].key < l[j].key }) || len(l) != len(want) {
					t.Fatalf("seed %d: settled list %v is not the table's %d keys in order", seed, l, len(want))
				}
				for i := 1; i < len(l); i++ {
					if l[i-1].key == l[i].key {
						t.Fatalf("seed %d: key %s settled twice", seed, l[i].key)
					}
				}
			}
			for probe := 0; probe < 3; probe++ {
				k := "k" + strconv.Itoa(r.Intn(200))
				got, ok := kt.lookup(k)
				w, wok := want[k]
				if ok != wok || got != w {
					t.Fatalf("seed %d: lookup(%s) = %d, %v; the map says %d, %v", seed, k, got, ok, w, wok)
				}
			}
		}
		if got := listOf(want); !reflect.DeepEqual(kt.settle(), got) {
			t.Fatalf("seed %d: the settled table differs from the map's entries in order", seed)
		}
	}
	var kt keyTable
	if kt.settle() != nil {
		t.Fatal("a table that never held a key settles to a list")
	}
	kt.note("", 1)
	if kt.settle() != nil {
		t.Fatal("the empty key was entered")
	}
}

// TestDecodedKeyTableIsOrdered: a binary image's key table loads as it
// was written, and one that arrives out of order — which no encoder here
// writes — is sorted, a repeated key keeping its last step as the map it
// used to decode into did.
func TestDecodedKeyTableIsOrdered(t *testing.T) {
	sorted := keyList{{"a", 3}, {"b", 1}, {"c", 2}}
	if got := sorted.ordered(); &got[0] != &sorted[0] {
		t.Fatal("an ordered table was copied")
	}
	got := keyList{{"c", 2}, {"a", 3}, {"b", 1}, {"a", 5}}.ordered()
	if want := (keyList{{"a", 5}, {"b", 1}, {"c", 2}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered = %v, want %v", got, want)
	}
}
