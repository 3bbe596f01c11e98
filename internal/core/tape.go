package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ra"
	"repro/internal/relation"
)

// LogTape is a run's log (Definition 2.2) held flat: the sequence of the
// instances LogDelta returns, one per step, kept as two append-only slices
// of words in which nothing is a pointer, so the collector marks a tape in
// O(1) however long the run. A step's delta is a run of records in words,
// one per logged relation that holds a tuple, in the order of the names:
//
//	name index (into the schema's logged relations, sorted by name)
//	tuple count
//	the tuples' constants, as symbols of the machine's ra.Interner, the
//	tuples in relation.Tuple.Less order
//
// and ends[i] is where step i's records end. Names and tuples are stored
// sorted, so Encode writes the bytes codec.Encoder.Sequence writes for the
// decoded steps without sorting anything, and empty relations are not
// stored at all, as neither encoding keeps them.
//
// A machine's run writes its tape from the step itself: Stepper.Step
// appends the rows the step's input and out stores hold at the logged
// relations' slots, so a served step builds no delta. Append is the same
// record written from a delta built as values (LogDelta), the form images
// carry and the oracle builds.
//
// A tape has one owner, which appends to it; View gives a reader a fixed
// prefix that later appends do not disturb.
type LogTape struct {
	lay   *tapeLayout
	ends  []uint32
	words []uint32
	order tupleOrder // Append's sort scratch
}

// tapeLayout is what a machine's tapes share: the logged relations, sorted
// and distinct, with their arities, and the intern table of the machine's
// plans.
type tapeLayout struct {
	in    *ra.Interner
	names []string
	arity []int
	// slots holds, for a machine's layout, each logged relation's predicate
	// slot in in: where a step's input and out stores hold its rows. A tape
	// no machine writes (NewLogTape) has none.
	slots []int32
}

func newTapeLayout(s *Schema, in *ra.Interner) *tapeLayout {
	lay := &tapeLayout{in: in}
	for _, d := range s.LogSchema() {
		lay.names = append(lay.names, d.Name)
	}
	sort.Strings(lay.names)
	for i, name := range lay.names {
		if i > 0 && name == lay.names[i-1] {
			continue
		}
		a, _ := s.Arity(name)
		lay.names[len(lay.arity)] = name
		lay.arity = append(lay.arity, a)
	}
	lay.names = lay.names[:len(lay.arity)]
	return lay
}

// machineTapeLayout is the layout of a machine's tapes. Each logged
// relation gets its slot here, when the machine is built, so that a step
// finds its rows by slot and stepping never assigns one; a logged input
// relation no rule reads thereby has a slot its step's input is interned
// into.
func machineTapeLayout(s *Schema, in *ra.Interner) *tapeLayout {
	lay := newTapeLayout(s, in)
	lay.slots = make([]int32, len(lay.names))
	for i, name := range lay.names {
		lay.slots[i] = in.Slot(name)
	}
	return lay
}

// index returns name's position among the logged relations, or -1.
func (lay *tapeLayout) index(name string) int {
	i := sort.SearchStrings(lay.names, name)
	if i < len(lay.names) && lay.names[i] == name {
		return i
	}
	return -1
}

// NewLogTape returns an empty log tape for a run of m.
func (m *Machine) NewLogTape() *LogTape { return &LogTape{lay: m.tape} }

// NewLogTape returns an empty tape over the relations rels declares, for a
// log no one machine writes (a network's wire traffic), interning its
// constants into in.
func NewLogTape(rels relation.Schema, in *ra.Interner) *LogTape {
	return &LogTape{lay: newTapeLayout(&Schema{Out: rels, Log: rels.Names()}, in)}
}

// Len returns the number of steps on the tape.
func (t *LogTape) Len() int { return len(t.ends) }

// start returns where step i's records begin.
func (t *LogTape) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

// Append records one step's log delta. delta must be what LogDelta built
// for the step: only the schema's logged relations are read from it, at
// the schema's arities. It interns the delta's constants, which on the step
// path the stepper has already interned, and allocates only to grow the
// tape (the first append sizes it for a few dozen steps).
func (t *LogTape) Append(delta relation.Instance) {
	t.size()
	in := t.lay.in
	for i, name := range t.lay.names {
		rel := delta[name]
		n := rel.Len()
		if n == 0 {
			continue
		}
		at := len(t.words)
		t.words = append(t.words, uint32(i), uint32(n))
		rel.Range(func(tu relation.Tuple) bool {
			for _, c := range tu {
				t.words = append(t.words, in.ID(c))
			}
			return true
		})
		t.normalize(at, t.lay.arity[i])
	}
	t.ends = append(t.ends, uint32(len(t.words)))
}

// size gives an empty tape room for a few dozen steps.
func (t *LogTape) size() {
	if t.ends == nil {
		t.ends, t.words = make([]uint32, 0, 16), make([]uint32, 0, 64)
	}
}

// appendStores records one step's log delta from the stores the step ran
// in: each logged relation's rows in input (a logged input relation) and in
// out (a logged output relation), the restriction of the step to the log
// (Definition 2.2) that LogDelta computes on values, already interned. A
// schema's input and output relations are disjoint, so at most one of the
// two holds a slot's rows. The tape must be one of the machine's layout,
// and input must fit the schema's arities (Schema.CheckInput).
func (t *LogTape) appendStores(input, out *ra.Store) {
	t.size()
	for i, slot := range t.lay.slots {
		in, derived := input.RowsAt(slot), out.RowsAt(slot)
		n := len(in) + len(derived)
		if n == 0 {
			continue
		}
		at := len(t.words)
		t.words = append(t.words, uint32(i), uint32(n))
		for _, row := range in {
			t.words = append(t.words, row...)
		}
		for _, row := range derived {
			t.words = append(t.words, row...)
		}
		t.normalize(at, t.lay.arity[i])
	}
	t.ends = append(t.ends, uint32(len(t.words)))
}

// Load appends the steps of a log given as instances — an image that
// carries its log as values — refusing a relation the schema does not log
// or one of another arity.
func (t *LogTape) Load(seq relation.Sequence) error {
	for i, in := range seq {
		for name, rel := range in {
			if rel.Len() == 0 {
				continue
			}
			j := t.lay.index(name)
			if j < 0 {
				return fmt.Errorf("log step %d: %s is not a logged relation", i+1, name)
			}
			if rel.Arity() != t.lay.arity[j] {
				return fmt.Errorf("log step %d: %s has arity %d, schema says %d", i+1, name, rel.Arity(), t.lay.arity[j])
			}
		}
		t.Append(in)
	}
	return nil
}

// normalize sorts the tuples of the record that starts at words[at] into
// relation.Tuple.Less order and drops repeats, correcting its count.
func (t *LogTape) normalize(at, arity int) {
	rows := t.words[at+2:]
	if arity == 0 || len(rows) <= arity {
		return
	}
	o := &t.order
	o.rows, o.arity, o.syms = rows, arity, t.lay.in.Symbols()
	if !sort.IsSorted(o) {
		sort.Sort(o)
	}
	n := 1
	for i := 1; i < o.Len(); i++ {
		if o.cmp(i, n-1) != 0 {
			copy(rows[n*arity:(n+1)*arity], rows[i*arity:(i+1)*arity])
			n++
		}
	}
	t.words = t.words[:at+2+n*arity]
	t.words[at+1] = uint32(n)
	o.rows, o.syms = nil, nil
}

// tupleOrder sorts fixed-width rows of symbols by the constants they
// denote; it lives in the tape so sorting allocates nothing.
type tupleOrder struct {
	rows  []uint32
	arity int
	syms  []relation.Const
}

func (o *tupleOrder) Len() int { return len(o.rows) / o.arity }

func (o *tupleOrder) cmp(i, j int) int {
	a := o.rows[i*o.arity : (i+1)*o.arity]
	b := o.rows[j*o.arity : (j+1)*o.arity]
	for k := range a {
		if a[k] != b[k] {
			if o.syms[a[k]] < o.syms[b[k]] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (o *tupleOrder) Less(i, j int) bool { return o.cmp(i, j) < 0 }

func (o *tupleOrder) Swap(i, j int) {
	a := o.rows[i*o.arity : (i+1)*o.arity]
	b := o.rows[j*o.arity : (j+1)*o.arity]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// Delta decodes step i (0-based) into a fresh instance equal to the delta
// it was appended from, empty relations left out.
func (t *LogTape) Delta(i int) relation.Instance {
	return t.decoder(i, i+1).delta(i)
}

// Extend returns prefix, a decoding of the tape's first len(prefix) steps,
// with every later step decoded and appended: a reader that keeps what it
// was given decodes each step once.
func (t *LogTape) Extend(prefix relation.Sequence) relation.Sequence {
	if len(prefix) >= len(t.ends) {
		return prefix
	}
	d := t.decoder(len(prefix), len(t.ends))
	for i := len(prefix); i < len(t.ends); i++ {
		prefix = append(prefix, d.delta(i))
	}
	return prefix
}

// stepDecoder decodes a range of steps into instances whose tuples and
// constants are carved from one array each, sized for the range up front.
type stepDecoder struct {
	t      *LogTape
	syms   []relation.Const
	tuples []relation.Tuple
	consts []relation.Const
}

// decoder returns a decoder for steps [from, to).
func (t *LogTape) decoder(from, to int) *stepDecoder {
	w := t.words[t.start(from):t.ends[to-1]]
	var tuples, consts int
	for len(w) > 0 {
		n := int(w[1])
		a := t.lay.arity[w[0]]
		tuples += n
		consts += n * a
		w = w[2+n*a:]
	}
	return &stepDecoder{
		t:      t,
		syms:   t.lay.in.Symbols(),
		tuples: make([]relation.Tuple, tuples),
		consts: make([]relation.Const, consts),
	}
}

func (d *stepDecoder) delta(i int) relation.Instance {
	t := d.t
	out := relation.NewInstance()
	w := t.words[t.start(i):t.ends[i]]
	for len(w) > 0 {
		idx, n := w[0], int(w[1])
		a := t.lay.arity[idx]
		tuples := d.tuples[:n:n]
		d.tuples = d.tuples[n:]
		for j, s := range w[2 : 2+n*a] {
			d.consts[j] = d.syms[s]
		}
		for j := range tuples {
			tuples[j] = d.consts[j*a : (j+1)*a : (j+1)*a]
		}
		d.consts = d.consts[n*a:]
		out[t.lay.names[idx]] = relation.NewRelOf(a, tuples)
		w = w[2+n*a:]
	}
	return out
}

// View returns a reader's copy of the tape as it is now. It shares the
// tape's words, which are never rewritten, and cannot grow into them: the
// owner's later appends are not in it, and an append to the view copies.
func (t *LogTape) View() *LogTape {
	return &LogTape{
		lay:   t.lay,
		ends:  t.ends[:len(t.ends):len(t.ends)],
		words: t.words[:len(t.words):len(t.words)],
	}
}

// Encode writes the tape as codec.Encoder.Sequence writes the sequence of
// its decoded steps — step count; per step the number of non-empty
// relations; per relation its name, arity, tuple count and constants, names
// and tuples sorted — byte for byte, without decoding a step.
func (t *LogTape) Encode(w ra.Writer) {
	syms := t.lay.in.Symbols()
	w.Uvarint(uint64(len(t.ends)))
	for i := range t.ends {
		t.encodeStep(w, syms, i)
	}
}

// EncodeStep writes step i (0-based) as codec.Encoder.Instance writes its
// delta, without decoding it.
func (t *LogTape) EncodeStep(w ra.Writer, i int) {
	t.encodeStep(w, t.lay.in.Symbols(), i)
}

func (t *LogTape) encodeStep(w ra.Writer, syms []relation.Const, i int) {
	at, end := t.start(i), t.ends[i]
	recs := 0
	for p := at; p < end; recs++ {
		p += 2 + t.words[p+1]*uint32(t.lay.arity[t.words[p]])
	}
	w.Uvarint(uint64(recs))
	for at < end {
		idx, n := t.words[at], t.words[at+1]
		a := uint32(t.lay.arity[idx])
		w.Str(t.lay.names[idx])
		w.Uvarint(uint64(a))
		w.Uvarint(uint64(n))
		for _, s := range t.words[at+2 : at+2+n*a] {
			w.Str(string(syms[s]))
		}
		at += 2 + n*a
	}
}

// SequenceReader is what Decode reads through: codec.Reader's primitives,
// whose errors are sticky.
type SequenceReader interface {
	Uvarint() uint64
	Str() string
	Err() error
}

// Decode appends the steps of a sequence written by codec.Encoder.Sequence
// (or Encode), interning its constants, and returns the reader's error if
// it failed. A relation the schema does not log, one of another arity, a
// relation named twice in a step and names out of order are refused; a
// relation's tuples are stored sorted and without repeats whatever order
// they arrive in. Nothing is allocated ahead of the bytes that justify it,
// and on an error the tape is left as it was.
func (t *LogTape) Decode(r SequenceReader) error {
	steps, words := len(t.ends), len(t.words)
	err := t.decode(r)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		t.ends, t.words = t.ends[:steps], t.words[:words]
	}
	return err
}

func (t *LogTape) decode(r SequenceReader) error {
	in := t.lay.in
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		rels := r.Uvarint()
		last := -1
		for j := uint64(0); j < rels && r.Err() == nil; j++ {
			name := r.Str()
			arity, count := r.Uvarint(), r.Uvarint()
			if r.Err() != nil {
				break
			}
			idx := t.lay.index(name)
			switch {
			case idx < 0:
				return fmt.Errorf("log step %d: %s is not a logged relation", i+1, name)
			case idx <= last:
				return fmt.Errorf("log step %d: relation %s repeated or out of order", i+1, name)
			case count == 0:
				continue
			case arity != uint64(t.lay.arity[idx]):
				return fmt.Errorf("log step %d: %s has arity %d, schema says %d", i+1, name, arity, t.lay.arity[idx])
			case arity == 0 && count > 1, count > math.MaxUint32:
				return fmt.Errorf("log step %d: relation %s of arity %d claims %d tuples", i+1, name, arity, count)
			}
			last = idx
			at := len(t.words)
			t.words = append(t.words, uint32(idx), uint32(count))
			for k := uint64(0); k < count*arity; k++ {
				c := r.Str()
				if r.Err() != nil {
					return nil
				}
				t.words = append(t.words, in.ID(relation.Const(c)))
			}
			t.normalize(at, int(arity))
		}
		t.ends = append(t.ends, uint32(len(t.words)))
	}
	return nil
}
