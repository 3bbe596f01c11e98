package session

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
)

// keyEntry is one idempotency key and the 1-based step it first produced.
type keyEntry struct {
	key string
	seq int
}

func compareKeys(a, b keyEntry) int { return strings.Compare(a.key, b.key) }

// keyList is a key table in key order, the order images write it in: an
// image holds its table as one, and a session holds the part of its table
// settled by the last image as one. Its JSON form is the object
// {key: seq} JSON-era images carry.
type keyList []keyEntry

// search returns key's position in l, and whether l holds it there.
func (l keyList) search(key string) (int, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].key >= key })
	return i, i < len(l) && l[i].key == key
}

// ordered returns l in key order: l itself when it is already — as a
// binary image's table always is — else its entries sorted, a repeated
// key keeping its last seq as a map read from the same entries would.
func (l keyList) ordered() keyList {
	for i := 1; i < len(l); i++ {
		if l[i-1].key >= l[i].key {
			return listOf(l.asMap())
		}
	}
	return l
}

// listOf returns the entries of m in key order.
func listOf(m map[string]int) keyList {
	l := make(keyList, 0, len(m))
	for k, seq := range m {
		l = append(l, keyEntry{k, seq})
	}
	slices.SortFunc(l, compareKeys)
	return l
}

// asMap returns l as a map; of a repeated key the last entry counts.
func (l keyList) asMap() map[string]int {
	m := make(map[string]int, len(l))
	for _, e := range l {
		m[e.key] = e.seq
	}
	return m
}

func (l keyList) MarshalJSON() ([]byte, error) { return json.Marshal(l.asMap()) }

func (l *keyList) UnmarshalJSON(data []byte) error {
	var m map[string]int
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m != nil {
		*l = listOf(m)
	}
	return nil
}

// keyTable is a session's idempotency-key table: the keys as of the last
// image, settled, and a map of only the keys noted since. Writing an image
// settles the table (settle), so an image sorts the keys new since the one
// before it and merges them in, and never re-sorts the table's history.
type keyTable struct {
	settled keyList
	fresh   map[string]int
}

// lookup returns the step key first produced.
func (t *keyTable) lookup(key string) (int, bool) {
	if seq, ok := t.fresh[key]; ok {
		return seq, true
	}
	if i, ok := t.settled.search(key); ok {
		return t.settled[i].seq, true
	}
	return 0, false
}

// note records that key produced step seq. A key the table holds keeps the
// step it first produced.
func (t *keyTable) note(key string, seq int) {
	if key == "" {
		return
	}
	if _, ok := t.lookup(key); ok {
		return
	}
	if t.fresh == nil {
		t.fresh = make(map[string]int)
	}
	t.fresh[key] = seq
}

// settle merges the keys noted since the last settle into the settled list
// and returns the whole table in key order: nil for a session that never
// held a key. The list is new whenever it grows, so a list returned earlier
// is never rewritten.
func (t *keyTable) settle() keyList {
	if len(t.fresh) == 0 {
		return t.settled
	}
	fresh := listOf(t.fresh)
	clear(t.fresh)
	if len(t.settled) == 0 {
		t.settled = fresh
		return fresh
	}
	old := t.settled
	merged := make(keyList, 0, len(old)+len(fresh))
	for len(old) > 0 && len(fresh) > 0 {
		if compareKeys(old[0], fresh[0]) < 0 {
			merged, old = append(merged, old[0]), old[1:]
		} else {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		}
	}
	merged = append(append(merged, old...), fresh...)
	t.settled = merged
	return merged
}
