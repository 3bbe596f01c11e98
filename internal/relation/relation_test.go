package relation

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func tup(cs ...string) Tuple {
	t := make(Tuple, len(cs))
	for i, c := range cs {
		t[i] = Const(c)
	}
	return t
}

func TestTupleKeyInjective(t *testing.T) {
	a := tup("ab", "c")
	b := tup("a", "bc")
	if a.Key() == b.Key() {
		t.Fatalf("keys collide: %q vs %q", a, b)
	}
}

func TestTupleEqualAndLess(t *testing.T) {
	if !tup("a", "b").Equal(tup("a", "b")) {
		t.Error("equal tuples reported unequal")
	}
	if tup("a").Equal(tup("a", "b")) {
		t.Error("tuples of different arity reported equal")
	}
	if !tup("a").Less(tup("a", "b")) {
		t.Error("shorter tuple should sort first")
	}
	if !tup("a", "a").Less(tup("a", "b")) {
		t.Error("lexicographic order violated")
	}
	if tup("a", "b").Less(tup("a", "b")) {
		t.Error("Less must be irreflexive")
	}
}

func TestRelAddHas(t *testing.T) {
	r := NewRel(2)
	if !r.Add(tup("x", "y")) {
		t.Error("first Add should report new")
	}
	if r.Add(tup("x", "y")) {
		t.Error("second Add should report duplicate")
	}
	if !r.Has(tup("x", "y")) {
		t.Error("Has misses inserted tuple")
	}
	if r.Has(tup("x", "z")) {
		t.Error("Has reports absent tuple")
	}
	if r.Has(tup("x")) {
		t.Error("Has must reject wrong arity")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRelAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong arity must panic")
		}
	}()
	NewRel(2).Add(tup("only-one"))
}

func TestRelZeroArity(t *testing.T) {
	r := NewRel(0)
	if !r.Add(Tuple{}) {
		t.Error("empty tuple should insert")
	}
	if r.Add(Tuple{}) {
		t.Error("empty tuple inserted twice")
	}
	if !r.Has(Tuple{}) {
		t.Error("Has misses empty tuple")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRelTuplesSorted(t *testing.T) {
	r := NewRel(1)
	for _, c := range []string{"c", "a", "b"} {
		r.Add(tup(c))
	}
	got := r.Tuples()
	want := []Tuple{tup("a"), tup("b"), tup("c")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tuples() = %v, want %v", got, want)
	}
}

// TestNewRelOf: a small relation adopts its tuples without letting an Add
// write past them into a neighbour's; a large one spills like Add-built
// relations do.
func TestNewRelOf(t *testing.T) {
	backing := []Tuple{tup("b"), tup("a"), tup("c")}
	r := NewRelOf(1, backing[:2])
	r.Add(tup("z"))
	if !backing[2].Equal(tup("c")) || r.Len() != 3 || !r.Has(tup("a")) || !r.Has(tup("z")) {
		t.Fatalf("adopting relation %v, backing %v", r, backing)
	}
	var many []Tuple
	for i := 0; i < 3*smallRelMax; i++ {
		many = append(many, tup(string(rune('a'+i)), "x"))
	}
	big := NewRelOf(2, many)
	if big.Len() != len(many) || big.tuples == nil {
		t.Fatalf("large relation holds %d tuples, spilled %v", big.Len(), big.tuples != nil)
	}
	n := 0
	big.RangeFirst("c", func(Tuple) bool { n++; return true })
	if n != 1 || !big.Has(tup("a", "x")) {
		t.Fatalf("large relation's index: %d tuples under c", n)
	}
	if z := NewRelOf(0, []Tuple{{}}); z.Len() != 1 || !z.Has(Tuple{}) {
		t.Fatal("0-ary relation of the empty tuple")
	}
}

func TestRelCloneIndependent(t *testing.T) {
	r := NewRel(1)
	r.Add(tup("a"))
	c := r.Clone()
	c.Add(tup("b"))
	if r.Has(tup("b")) {
		t.Error("Clone shares storage with original")
	}
}

func TestRelSetOps(t *testing.T) {
	a := NewRel(1)
	a.Add(tup("x"))
	b := NewRel(1)
	b.Add(tup("x"))
	b.Add(tup("y"))
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	a.UnionWith(b)
	if !a.Equal(b) {
		t.Error("after union, a should equal b")
	}
	a.UnionWith(nil) // must not panic
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance()
	if !in.Empty() {
		t.Error("fresh instance not empty")
	}
	in.Add("order", tup("time"))
	in.Add("pay", tup("time", "855"))
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if !in.Has("order", tup("time")) {
		t.Error("Has misses fact")
	}
	if in.Has("deliver", tup("time")) {
		t.Error("Has invents relation")
	}
	got := in.String()
	want := "{order(time), pay(time, 855)}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestInstanceRestrict(t *testing.T) {
	in := NewInstance()
	in.Add("a", tup("1"))
	in.Add("b", tup("2"))
	r := in.Restrict([]string{"a"})
	if r.Has("b", tup("2")) {
		t.Error("Restrict kept excluded relation")
	}
	if !r.Has("a", tup("1")) {
		t.Error("Restrict dropped included relation")
	}
}

func TestInstanceEqualEmptyVsAbsent(t *testing.T) {
	a := NewInstance()
	a.Ensure("r", 1) // empty relation present
	b := NewInstance()
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("empty relation must equal absent relation")
	}
	b.Add("r", tup("x"))
	if a.Equal(b) || b.Equal(a) {
		t.Error("distinct instances reported equal")
	}
}

func TestInstanceUnionSubset(t *testing.T) {
	a := NewInstance()
	a.Add("r", tup("1"))
	b := NewInstance()
	b.Add("r", tup("2"))
	b.Add("s", tup("3"))
	a.UnionWith(b)
	if !b.SubsetOf(a) {
		t.Error("b should be subset after union")
	}
	if a.SubsetOf(b) {
		t.Error("a has extra fact; not subset")
	}
}

func TestInstanceActiveDomain(t *testing.T) {
	in := NewInstance()
	in.Add("r", tup("b", "a"))
	in.Add("s", tup("c"))
	got := in.ActiveDomain()
	want := []Const{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ActiveDomain = %v, want %v", got, want)
	}
}

func TestInstanceFactsDeterministic(t *testing.T) {
	in := NewInstance()
	in.Add("b", tup("2"))
	in.Add("a", tup("1"))
	in.Add("a", tup("0"))
	facts := in.Facts()
	if len(facts) != 3 {
		t.Fatalf("Facts len = %d, want 3", len(facts))
	}
	if facts[0].String() != "a(0)" || facts[1].String() != "a(1)" || facts[2].String() != "b(2)" {
		t.Errorf("Facts order wrong: %v", facts)
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{{"price", 2}, {"available", 1}}
	if a, ok := s.Arity("price"); !ok || a != 2 {
		t.Errorf("Arity(price) = %d,%v", a, ok)
	}
	if s.Has("order") {
		t.Error("Has invents relation")
	}
	u, err := s.Union(Schema{{"order", 1}, {"price", 2}})
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if len(u) != 3 {
		t.Errorf("Union len = %d, want 3", len(u))
	}
	if _, err := s.Union(Schema{{"price", 3}}); err == nil {
		t.Error("Union must reject conflicting arity")
	}
	if !s.Disjoint(Schema{{"order", 1}}) {
		t.Error("Disjoint false negative")
	}
	if s.Disjoint(Schema{{"price", 2}}) {
		t.Error("Disjoint false positive")
	}
	r := s.Restrict([]string{"available"})
	if len(r) != 1 || r[0].Name != "available" {
		t.Errorf("Restrict = %v", r)
	}
}

func TestSequenceOps(t *testing.T) {
	i1 := NewInstance()
	i1.Add("order", tup("time"))
	i2 := NewInstance()
	i2.Add("pay", tup("time", "855"))
	s := Sequence{i1, i2}
	c := s.Clone()
	c[0].Add("order", tup("newsweek"))
	if s[0].Has("order", tup("newsweek")) {
		t.Error("Sequence.Clone shares storage")
	}
	if !s.Equal(s.Clone()) {
		t.Error("sequence should equal its clone")
	}
	if s.Equal(Sequence{i1}) {
		t.Error("sequences of different length equal")
	}
	r := s.Restrict([]string{"pay"})
	if !r[0].Empty() || !r[1].Has("pay", tup("time", "855")) {
		t.Error("Sequence.Restrict wrong")
	}
	dom := s.ActiveDomain()
	want := []Const{"855", "time"}
	if !reflect.DeepEqual(dom, want) {
		t.Errorf("ActiveDomain = %v, want %v", dom, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := NewInstance()
	in.Add("pay", tup("time", "855"))
	in.Add("order", tup("le-monde"))
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !in.Equal(back) {
		t.Errorf("round trip changed instance: %s vs %s", in, back)
	}
}

func TestJSONRejectsMixedArity(t *testing.T) {
	var in Instance
	err := json.Unmarshal([]byte(`{"r": [["a"], ["a","b"]]}`), &in)
	if err == nil {
		t.Error("mixed-arity relation must be rejected")
	}
}

// randomInstance builds a small random instance for property tests.
func randomInstance(r *rand.Rand) Instance {
	in := NewInstance()
	rels := []string{"p", "q", "r"}
	consts := []string{"a", "b", "c", "d"}
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		name := rels[r.Intn(len(rels))]
		arity := 1 + int(name[0]-'p')%2 // p:1 q:2 r:1
		if name == "q" {
			arity = 2
		} else {
			arity = 1
		}
		t := make(Tuple, arity)
		for j := range t {
			t[j] = Const(consts[r.Intn(len(consts))])
		}
		in.Add(name, t)
	}
	return in
}

func TestPropUnionCommutesOnEquality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomInstance(r), randomInstance(r)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUnionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomInstance(r)
		aa := a.Clone()
		aa.UnionWith(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubsetAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomInstance(r), randomInstance(r)
		if a.SubsetOf(b) && b.SubsetOf(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomInstance(r)
		data, err := json.Marshal(a)
		if err != nil {
			return false
		}
		var back Instance
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return a.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropActiveDomainSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomInstance(r)
		dom := a.ActiveDomain()
		return sort.SliceIsSorted(dom, func(i, j int) bool { return dom[i] < dom[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestJSONRejectsNUL pins the refusal of NUL, Tuple.Key's separator, in a
// decoded constant. Let through, ("a\x00b","c") and ("a","b\x00c") share
// the key "a\x00b\x00c", and a relation past smallRelMax tuples — keyed by
// Tuple.Key — would hold one of them and drop the other without a word.
func TestJSONRejectsNUL(t *testing.T) {
	rows := [][]string{{"a\x00b", "c"}, {"a", "b\x00c"}}
	for i := 0; i < smallRelMax+1; i++ {
		rows = append(rows, []string{"x", string(rune('a' + i))})
	}
	data, err := json.Marshal(map[string][][]string{"r": rows})
	if err != nil {
		t.Fatal(err)
	}
	var in Instance
	if err := json.Unmarshal(data, &in); err == nil {
		t.Fatalf("decoded %d rows into %d tuples without an error", len(rows), in.Len())
	}
	for _, c := range []string{"\x00", "a\x00", "\x00a"} {
		if err := json.Unmarshal([]byte(`{"r": [[`+strconv.Quote(c)+`]]}`), &in); err == nil {
			t.Errorf("constant %q decoded without an error", c)
		}
	}
}

// TestDigestOrderIndependent: the digest is a function of the set of
// facts — not of the order they were added in, in small or spilled
// storage, nor of empty relations.
func TestDigestOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomInstance(r)
		facts := a.Facts()
		r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		b := NewInstance()
		b.Ensure("empty", 3)
		for _, f := range facts {
			b.Add(f.Rel, f.Args)
		}
		return a.Digest() == b.Digest() && a.Digest() == a.Clone().Digest()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	up, down := NewInstance(), NewInstance()
	for i := 0; i < 2*smallRelMax; i++ {
		up.Add("r", tup(strconv.Itoa(i)))
	}
	for i := 2*smallRelMax - 1; i >= 0; i-- {
		down.Add("r", tup(strconv.Itoa(i)))
	}
	if up.Digest() != down.Digest() {
		t.Error("equal spilled relations built in different orders digest differently")
	}
	if (Instance{}).Digest() != (Digest{}) || (Instance)(nil).Digest() != (Digest{}) {
		t.Error("an empty instance does not digest as zero")
	}
}

// TestDigestInjectiveOnBytes: facts whose names and constants concatenate
// to the same bytes, or which differ only in how tuples are grouped, digest
// apart — every name and constant is length-prefixed.
func TestDigestInjectiveOnBytes(t *testing.T) {
	one := func(facts ...Fact) Instance {
		in := NewInstance()
		for _, f := range facts {
			in.Add(f.Rel, f.Args)
		}
		return in
	}
	pairs := [][2]Instance{
		{one(Fact{"order", tup("x\x01y")}), one(Fact{"order", tup("x")}, Fact{"order", tup("y")})},
		{one(Fact{"r", tup("ab", "c")}), one(Fact{"r", tup("a", "bc")})},
		{one(Fact{"ra", tup("b")}), one(Fact{"r", tup("ab")})},
		{one(Fact{"p", tup()}), one(Fact{"q", tup()})},
		{one(Fact{"p", tup()}), NewInstance()},
		{one(Fact{"r", tup("a", "b")}), one(Fact{"r", tup("b", "a")})},
		{one(Fact{"r", tup("a")}), one(Fact{"s", tup("a")})},
	}
	for _, p := range pairs {
		if p[0].Digest() == p[1].Digest() {
			t.Errorf("%s and %s share a digest", p[0], p[1])
		}
	}
}

// TestDigestAllocatesNothing: a digest of facts that fit the stack buffer
// allocates nothing, whatever the instance's size.
func TestDigestAllocatesNothing(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 1000; i++ {
		in.Add("pay", tup("item-"+strconv.Itoa(i), strconv.Itoa(100+i)))
	}
	in.Add("order", tup("item-1"))
	var d Digest
	if n := testing.AllocsPerRun(10, func() { d = in.Digest() }); n != 0 {
		t.Errorf("Digest allocates %.0f times", n)
	}
	if d == (Digest{}) {
		t.Error("a non-empty instance digests as zero")
	}
}
