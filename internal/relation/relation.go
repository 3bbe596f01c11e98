// Package relation implements the set-based relational substrate used by the
// transducer engine: constants, tuples, relation schemas, and finite
// instances with deterministic iteration order.
//
// The paper models all data as finite relations over an uninterpreted domain
// of constants. We represent constants as strings (numeric literals keep
// their textual form), tuples as constant slices, and instances as sets of
// tuples keyed by relation name. All operations are pure set algebra; no
// interpretation is attached to constant values beyond equality.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Const is a constant symbol of the (uninterpreted) domain. Numeric values
// such as prices are represented by their literal spelling ("855").
type Const string

// Tuple is an ordered list of constants. Tuples are immutable by convention:
// callers must not modify a Tuple after handing it to an Instance.
type Tuple []Const

// Key returns a canonical string encoding of the tuple usable as a map key.
// The encoding separates components with a byte that cannot occur in
// constants produced by the parsers in this module ('\x00').
func (t Tuple) Key() string {
	var b strings.Builder
	for i, c := range t {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(string(c))
	}
	return b.String()
}

// Equal reports whether two tuples have the same length and components.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Less orders tuples first by length and then lexicographically; it induces
// the deterministic iteration order used throughout the module.
func (t Tuple) Less(u Tuple) bool {
	if len(t) != len(u) {
		return len(t) < len(u)
	}
	for i := range t {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return false
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// String renders the tuple as "(a, b, c)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, c := range t {
		parts[i] = string(c)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Decl declares one relation: a name and an arity. Arity 0 (propositional)
// relations are permitted and hold at most the empty tuple.
type Decl struct {
	Name  string
	Arity int
}

func (d Decl) String() string { return fmt.Sprintf("%s/%d", d.Name, d.Arity) }

// Schema is an ordered list of relation declarations. Order is preserved for
// deterministic printing; lookups go through Arity/Has.
type Schema []Decl

// Has reports whether the schema declares a relation with the given name.
func (s Schema) Has(name string) bool {
	for _, d := range s {
		if d.Name == name {
			return true
		}
	}
	return false
}

// Arity returns the arity of the named relation and whether it is declared.
func (s Schema) Arity(name string) (int, bool) {
	for _, d := range s {
		if d.Name == name {
			return d.Arity, true
		}
	}
	return 0, false
}

// Names returns the declared relation names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, d := range s {
		out[i] = d.Name
	}
	return out
}

// Union concatenates two schemas, returning an error on conflicting
// redeclaration. A duplicate declaration with identical arity is dropped.
func (s Schema) Union(t Schema) (Schema, error) {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	for _, d := range t {
		if a, ok := out.Arity(d.Name); ok {
			if a != d.Arity {
				return nil, fmt.Errorf("relation %s declared with arities %d and %d", d.Name, a, d.Arity)
			}
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// Disjoint reports whether the two schemas declare no common relation name.
func (s Schema) Disjoint(t Schema) bool {
	for _, d := range t {
		if s.Has(d.Name) {
			return false
		}
	}
	return true
}

// Restrict returns the sub-schema containing only the named relations, in
// the receiver's order.
func (s Schema) Restrict(names []string) Schema {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	var out Schema
	for _, d := range s {
		if keep[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = d.String()
	}
	return strings.Join(parts, ", ")
}

// Rel is a finite set of tuples of a fixed arity. Small relations (the
// overwhelmingly common case on the step path: inputs, outputs, and state
// deltas hold a handful of tuples) store their tuples in a plain slice with
// linear-scan membership — no hash maps, no key strings. Past smallRelMax
// tuples the relation spills into a tuple map plus a hash index on the
// first column, which the datalog evaluator uses for joins.
type Rel struct {
	arity   int
	small   []Tuple           // linear storage; nil once spilled
	tuples  map[string]Tuple  // non-nil exactly when spilled
	byFirst map[Const][]Tuple // spilled relations of positive arity only
}

// smallRelMax is the linear-storage capacity: relations spill to hashed
// storage on the insert that would exceed it. Linear dup-checks are at most
// smallRelMax tuple comparisons, cheaper than one key-string allocation.
const smallRelMax = 8

// NewRel creates an empty relation of the given arity.
func NewRel(arity int) *Rel {
	return &Rel{arity: arity}
}

// NewRelOf creates a relation of the given arity holding tuples, which
// must be distinct and of that arity: a decoder that knows its tuples form
// a set builds the relation without checking each against the others. A
// relation small enough to store them linearly adopts the slice, clipped so
// that an Add never writes past it.
func NewRelOf(arity int, tuples []Tuple) *Rel {
	r := &Rel{arity: arity}
	if len(tuples) <= smallRelMax {
		r.small = tuples[:len(tuples):len(tuples)]
		return r
	}
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Arity returns the relation's arity.
func (r *Rel) Arity() int { return r.arity }

// tupleEq compares two same-arity tuples componentwise.
func tupleEq(a, b Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spill moves linear storage into the hashed representation.
func (r *Rel) spill() {
	r.tuples = make(map[string]Tuple, len(r.small)+1)
	if r.arity > 0 {
		r.byFirst = make(map[Const][]Tuple, len(r.small)+1)
	}
	for _, t := range r.small {
		r.tuples[t.Key()] = t
		if r.arity > 0 {
			r.byFirst[t[0]] = append(r.byFirst[t[0]], t)
		}
	}
	r.small = nil
}

// Add inserts a tuple, returning true if it was not already present.
// It panics if the tuple's length differs from the relation's arity; this is
// a programming error, not a data error.
func (r *Rel) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: tuple %v has arity %d, want %d", t, len(t), r.arity))
	}
	if r.tuples == nil {
		for _, u := range r.small {
			if tupleEq(u, t) {
				return false
			}
		}
		if len(r.small) < smallRelMax {
			r.small = append(r.small, t)
			return true
		}
		r.spill()
	}
	k := t.Key()
	if _, ok := r.tuples[k]; ok {
		return false
	}
	r.tuples[k] = t
	if r.byFirst != nil {
		r.byFirst[t[0]] = append(r.byFirst[t[0]], t)
	}
	return true
}

// Range calls f for every tuple in unspecified order, stopping early if f
// returns false. Use Tuples for the deterministic sorted order.
func (r *Rel) Range(f func(Tuple) bool) {
	if r == nil {
		return
	}
	for _, t := range r.small {
		if !f(t) {
			return
		}
	}
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// RangeFirst calls f for every tuple whose first component equals c (in
// unspecified order), stopping early if f returns false. It is a no-op on
// nil or zero-arity relations.
func (r *Rel) RangeFirst(c Const, f func(Tuple) bool) {
	if r == nil || r.arity == 0 {
		return
	}
	for _, t := range r.small {
		if t[0] == c && !f(t) {
			return
		}
	}
	for _, t := range r.byFirst[c] {
		if !f(t) {
			return
		}
	}
}

// Has reports whether the tuple is present.
func (r *Rel) Has(t Tuple) bool {
	if r == nil || len(t) != r.arity {
		return false
	}
	if r.tuples == nil {
		for _, u := range r.small {
			if tupleEq(u, t) {
				return true
			}
		}
		return false
	}
	_, ok := r.tuples[t.Key()]
	return ok
}

// Len returns the number of tuples.
func (r *Rel) Len() int {
	if r == nil {
		return 0
	}
	return len(r.small) + len(r.tuples)
}

// Empty reports whether the relation holds no tuples.
func (r *Rel) Empty() bool { return r.Len() == 0 }

// Tuples returns the tuples in deterministic (sorted) order.
func (r *Rel) Tuples() []Tuple {
	if r == nil {
		return nil
	}
	out := make([]Tuple, 0, r.Len())
	out = append(out, r.small...)
	for _, t := range r.tuples {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns an independent deep copy. Tuples are immutable and shared;
// spilled maps are copied directly so keys are not recomputed.
func (r *Rel) Clone() *Rel {
	c := &Rel{arity: r.arity}
	if len(r.small) > 0 {
		c.small = append(make([]Tuple, 0, len(r.small)), r.small...)
	}
	if r.tuples != nil {
		c.tuples = make(map[string]Tuple, len(r.tuples))
		for k, t := range r.tuples {
			c.tuples[k] = t
		}
		if r.byFirst != nil {
			c.byFirst = make(map[Const][]Tuple, len(r.byFirst))
			for f, ts := range r.byFirst {
				c.byFirst[f] = append([]Tuple(nil), ts...)
			}
		}
	}
	return c
}

// UnionWith adds every tuple of s into r (s may be nil).
func (r *Rel) UnionWith(s *Rel) {
	s.Range(func(t Tuple) bool {
		r.Add(t)
		return true
	})
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Rel) Equal(s *Rel) bool {
	if r.Len() != s.Len() {
		return false
	}
	if r.tuples != nil && s.tuples != nil && r.arity == s.arity {
		// Both hashed under one key encoding: compare keys, building none.
		for k := range r.tuples {
			if _, ok := s.tuples[k]; !ok {
				return false
			}
		}
		return true
	}
	eq := true
	r.Range(func(t Tuple) bool {
		if !s.Has(t) {
			eq = false
		}
		return eq
	})
	return eq
}

// SubsetOf reports whether every tuple of r is in s.
func (r *Rel) SubsetOf(s *Rel) bool {
	sub := true
	r.Range(func(t Tuple) bool {
		if !s.Has(t) {
			sub = false
		}
		return sub
	})
	return sub
}

func (r *Rel) String() string {
	ts := r.Tuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Instance maps relation names to finite relations. A missing entry denotes
// the empty relation; the zero-value distinction never matters semantically.
type Instance map[string]*Rel

// NewInstance returns an empty instance.
func NewInstance() Instance { return make(Instance) }

// Rel returns the relation stored under name, or nil if absent/empty.
func (in Instance) Rel(name string) *Rel { return in[name] }

// Ensure returns the relation stored under name, creating an empty relation
// of the given arity if absent.
func (in Instance) Ensure(name string, arity int) *Rel {
	r, ok := in[name]
	if !ok {
		r = NewRel(arity)
		in[name] = r
	}
	return r
}

// Add inserts a fact, creating the relation (with the fact's arity) on first
// use. It returns true if the fact was new.
func (in Instance) Add(name string, t Tuple) bool {
	return in.Ensure(name, len(t)).Add(t)
}

// Has reports whether the fact is present.
func (in Instance) Has(name string, t Tuple) bool {
	r, ok := in[name]
	return ok && r.Has(t)
}

// Len returns the total number of facts across all relations.
func (in Instance) Len() int {
	n := 0
	for _, r := range in {
		n += r.Len()
	}
	return n
}

// Empty reports whether the instance holds no facts at all.
func (in Instance) Empty() bool { return in.Len() == 0 }

// Clone returns an independent deep copy.
func (in Instance) Clone() Instance {
	c := make(Instance, len(in))
	for name, r := range in {
		c[name] = r.Clone()
	}
	return c
}

// UnionWith merges every fact of other into in.
func (in Instance) UnionWith(other Instance) {
	for name, r := range other {
		if r.Len() == 0 {
			continue
		}
		in.Ensure(name, r.Arity()).UnionWith(r)
	}
}

// Restrict returns a copy containing only the named relations (empty ones
// included if present in the receiver).
func (in Instance) Restrict(names []string) Instance {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	out := NewInstance()
	for name, r := range in {
		if keep[name] {
			out[name] = r.Clone()
		}
	}
	return out
}

// Equal reports whether two instances hold exactly the same facts. Empty
// relations are identified with absent ones.
func (in Instance) Equal(other Instance) bool {
	for name, r := range in {
		if !r.Equal(other.ensureView(name)) {
			return false
		}
	}
	for name, r := range other {
		if _, ok := in[name]; !ok && r.Len() > 0 {
			return false
		}
	}
	return true
}

func (in Instance) ensureView(name string) *Rel {
	if r, ok := in[name]; ok {
		return r
	}
	return &Rel{}
}

// SubsetOf reports whether every fact of in appears in other.
func (in Instance) SubsetOf(other Instance) bool {
	for name, r := range in {
		if r.Len() == 0 {
			continue
		}
		o, ok := other[name]
		if !ok || !r.SubsetOf(o) {
			return false
		}
	}
	return true
}

// Names returns the relation names present in the instance, sorted.
func (in Instance) Names() []string {
	out := make([]string, 0, len(in))
	for name := range in {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ActiveDomain returns the sorted set of constants occurring in any fact.
func (in Instance) ActiveDomain() []Const {
	seen := make(map[Const]bool)
	for _, r := range in {
		r.Range(func(t Tuple) bool {
			for _, c := range t {
				seen[c] = true
			}
			return true
		})
	}
	out := make([]Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the instance deterministically as "name{(..), ..}; ...".
func (in Instance) String() string {
	names := in.Names()
	var parts []string
	for _, name := range names {
		r := in[name]
		if r.Len() == 0 {
			continue
		}
		if r.Arity() == 0 {
			parts = append(parts, name)
			continue
		}
		ts := r.Tuples()
		for _, t := range ts {
			parts = append(parts, name+t.String())
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Facts returns all facts as (name, tuple) pairs in deterministic order.
func (in Instance) Facts() []Fact {
	var out []Fact
	for _, name := range in.Names() {
		for _, t := range in[name].Tuples() {
			out = append(out, Fact{Rel: name, Args: t})
		}
	}
	return out
}

// Fact is a single ground atom: a relation name applied to a tuple.
type Fact struct {
	Rel  string
	Args Tuple
}

func (f Fact) String() string {
	if len(f.Args) == 0 {
		return f.Rel
	}
	return f.Rel + f.Args.String()
}

// Sequence is a finite sequence of instances over a common schema — the
// paper's basic notion of input, output, state, and log sequences.
type Sequence []Instance

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, in := range s {
		out[i] = in.Clone()
	}
	return out
}

// Equal reports element-wise equality of two sequences.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if !s[i].Equal(t[i]) {
			return false
		}
	}
	return true
}

// Restrict restricts every instance of the sequence to the named relations.
func (s Sequence) Restrict(names []string) Sequence {
	out := make(Sequence, len(s))
	for i, in := range s {
		out[i] = in.Restrict(names)
	}
	return out
}

// ActiveDomain returns the sorted constants occurring anywhere in the
// sequence.
func (s Sequence) ActiveDomain() []Const {
	seen := make(map[Const]bool)
	for _, in := range s {
		for _, c := range in.ActiveDomain() {
			seen[c] = true
		}
	}
	out := make([]Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, in := range s {
		parts[i] = fmt.Sprintf("%d: %s", i+1, in)
	}
	return strings.Join(parts, "\n")
}
