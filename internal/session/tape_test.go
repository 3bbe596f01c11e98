package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/relation"
)

// tapeSrc logs inputs and outputs of every arity from 0 to 3 and keeps one
// of each out of the log, so a session's log mixes both sides and every
// shape of relation the codec writes.
const tapeSrc = `
transducer tapes
schema
  database: d/1;
  input: i0/0, i1/1, i2/2, i3/3, quiet/1;
  state: past-i0/0, past-i1/1, past-i2/2, past-i3/3, past-quiet/1;
  output: o0/0, o1/1, o2/2, o3/3, mute/1;
  log: i0, i1, i2, i3, o0, o1, o2, o3;
output rules
  o0 :- i1(X), past-i0;
  o1(X) :- i2(X,Y), NOT past-i1(X);
  o2(Y,X) :- i3(X,Y,Z), d(Z);
  o3(Z,Y,X) :- i3(X,Y,Z);
  mute(X) :- quiet(X);
`

// tapeInput draws one step's input for tapeSrc: each relation absent,
// present and empty, or holding a few tuples.
func tapeInput(r *rand.Rand) relation.Instance {
	in := relation.NewInstance()
	domain := []relation.Const{"delta", "b", "a", "zz", "c"}
	for _, d := range []relation.Decl{{Name: "i0"}, {Name: "i1", Arity: 1}, {Name: "i2", Arity: 2}, {Name: "i3", Arity: 3}, {Name: "quiet", Arity: 1}} {
		switch r.Intn(3) {
		case 0:
			continue
		case 1:
			in.Ensure(d.Name, d.Arity)
			continue
		}
		rel := in.Ensure(d.Name, d.Arity)
		for n := 1 + r.Intn(10); n > 0; n-- {
			t := make(relation.Tuple, d.Arity)
			for k := range t {
				t[k] = domain[r.Intn(len(domain))]
			}
			rel.Add(t)
		}
	}
	return in
}

// TestImagesEncodeFromTheTape: a session keeps its log on a tape, and every
// durable form of it is what the log's instances encode to — the snapshot
// image and the ship image byte for byte, the log digest exactly. Log reads
// halfway and at the end see the whole log. The image decodes into a tape
// again and restores to a session whose log, deduped answers and image are
// the same.
func TestImagesEncodeFromTheTape(t *testing.T) {
	db := relation.NewInstance()
	db.Add("d", relation.Tuple{"a"})
	db.Add("d", relation.Tuple{"zz"})
	type run struct {
		req    *OpenRequest
		inputs []relation.Instance
	}
	runs := []run{{&OpenRequest{Model: "short"}, models.Fig1Inputs()}, {&OpenRequest{Model: "short"}, nil}}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var inputs []relation.Instance
		for n := r.Intn(10); n > 0; n-- {
			inputs = append(inputs, tapeInput(r))
		}
		runs = append(runs, run{&OpenRequest{Src: tapeSrc, DB: db}, inputs})
	}
	for i, rn := range runs {
		s, err := newSession(fmt.Sprintf("tape-%d", i), rn.req)
		if err != nil {
			t.Fatal(err)
		}
		var logs relation.Sequence
		for k, in := range rn.inputs {
			if k == len(rn.inputs)/2 && !s.log().Equal(logs) {
				t.Fatalf("run %d: log read after %d steps: %v, want %v", i, k, s.decoded, logs)
			}
			if err := s.validateInput(in); err != nil {
				t.Fatal(err)
			}
			logs = append(logs, s.apply(in).Log)
		}
		if got := s.log(); !got.Equal(logs) {
			t.Fatalf("run %d: log read %v, want %v", i, got, logs)
		}
		img := snapOf(s)
		got := encodeImage(t, &img)
		if want := sequenceImage(kindImage, "", &img, s.run.State(), logs, nil); !bytes.Equal(got, want) {
			t.Fatalf("run %d: the image encoded from the tape differs from the one encoded from its log %v", i, logs)
		}
		if digest := s.logDigest(); digest != LogDigest(logs) {
			t.Fatalf("run %d: log digest %s from the tape, %s from the log", i, digest, LogDigest(logs))
		}
		ship, err := EncodeStateExport(&StateExport{Image: &img, Digest: s.logDigest()})
		if err != nil {
			t.Fatal(err)
		}
		if want := sequenceImage(kindStateExport, LogDigest(logs), &img, s.run.State(), logs, nil); !bytes.Equal(ship, want) {
			t.Fatalf("run %d: the ship image encoded from the tape differs from the one encoded from its log", i)
		}
		for seq := range logs {
			if dup := s.dupResult(seq + 1).Log; !dup.Equal(logs[seq]) {
				t.Fatalf("run %d: a deduped step %d answers %v, logged %v", i, seq+1, dup, logs[seq])
			}
		}

		se, err := DecodeStateExport(ship)
		if err != nil {
			t.Fatal(err)
		}
		if len(logs) > 0 && se.Image.tape == nil {
			t.Fatalf("run %d: a decoded image holds its log as values, not on a tape", i)
		}
		back, err := se.Image.restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := back.log(); !got.Equal(logs) || back.logDigest() != se.Digest {
			t.Fatalf("run %d: restored log %v, want %v", i, got, logs)
		}
		again := snapOf(back)
		if !bytes.Equal(encodeImage(t, &again), got) {
			t.Fatalf("run %d: a restored session encodes another image", i)
		}
	}
}

// sequenceImage is the reference encoding of a single-machine img as a
// snapshot image (kindImage) or a ship image (kindStateExport, with
// digest), as the session layer wrote every image before it kept logs on
// tapes, encoded state from resident rows and kept its key table settled:
// the state written from the instance state by codec.Encoder.Instance, the
// log from logs by codec.Encoder.Sequence, and the key table, when keys is
// not nil, from the map sorted whole.
func sequenceImage(kind uint64, digest string, img *Image, state relation.Instance, logs relation.Sequence, keys map[string]int) []byte {
	e := codec.NewEncoder()
	e.Uvarint(kind)
	if kind == kindStateExport {
		e.Bytes([]byte(digest))
	}
	e.Str(img.ID)
	e.Str(img.Model)
	e.Str(img.Src)
	e.Str(img.Mode)
	e.Uvarint(uint64(img.Steps))
	e.Bool(img.ErrorFree)
	e.Bool(img.OkEvery)
	e.Bool(img.LastAccept)
	flags := uint64(imgHasDB | imgHasState)
	if len(logs) > 0 {
		flags |= imgHasLogs
	}
	if keys != nil {
		flags |= imgHasKeys
	}
	e.Uvarint(flags)
	e.Instance(img.DB)
	e.Instance(state)
	if len(logs) > 0 {
		e.Sequence(logs)
	}
	if keys != nil {
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		e.Uvarint(uint64(len(names)))
		for _, k := range names {
			e.Str(k)
			e.Uvarint(uint64(keys[k]))
		}
	}
	return e.Finish()
}

func encodeImage(t *testing.T, img *Image) []byte {
	t.Helper()
	data, err := encodeImageRecord(codec.NewEncoder(), img)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLogRetentionIsFlat holds a session's history to the tape: the
// benchmark's wide_mem shape — SHORT on a 12-item catalogue, ordered and
// paid for round and round through Engine.Input, so the state stops
// growing after the first round — may leave at most 0.05 live heap objects
// a step behind it. A log kept as one instance per step left 4.99 here.
func TestLogRetentionIsFlat(t *testing.T) {
	const steps, perStep = 10000, 0.05
	db := relation.NewInstance()
	var cycle []relation.Instance
	for i := 0; i < 12; i++ {
		item, price := fmt.Sprintf("item-%04d", i), strconv.Itoa(100+i)
		db.Add("price", relation.Tuple{relation.Const(item), relation.Const(price)})
		db.Add("available", relation.Tuple{relation.Const(item)})
		cycle = append(cycle, step(t, fact("order", item)), step(t, fact("pay", item, price)))
	}
	e, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "heap", Model: "short", DB: db}); err != nil {
		t.Fatal(err)
	}
	shop := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Input("heap", cycle[i%len(cycle)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveObjects := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapObjects)
	}
	shop(len(cycle))
	before := liveObjects()
	shop(steps)
	grew := float64(liveObjects()-before) / steps
	t.Logf("%.4f live heap objects a step over %d steps (ceiling %.2f)", grew, steps, perStep)
	if grew > perStep {
		t.Fatalf("the session retains %.3f heap objects a step: its history is not flat", grew)
	}
}
