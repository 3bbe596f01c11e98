package session

import (
	"encoding/json"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/relation"
)

// Framing, torn-tail, and rotation tests live with the mechanism in
// internal/storage; this file covers what the session layer owns — the
// record vocabulary and the policy aliases.

func step(t testing.TB, facts ...relation.Fact) relation.Instance {
	t.Helper()
	in := relation.NewInstance()
	for _, f := range facts {
		in.Add(f.Rel, f.Args)
	}
	return in
}

func fact(rel string, args ...string) relation.Fact {
	tu := make(relation.Tuple, len(args))
	for i, a := range args {
		tu[i] = relation.Const(a)
	}
	return relation.Fact{Rel: rel, Args: tu}
}

func TestWALRecordRoundTrip(t *testing.T) {
	in := step(t, fact("order", "time"))
	recs := []*walRecord{
		{T: recOpen, SID: "s1", Model: "short", Mode: "all"},
		{T: recStep, SID: "s1", Seq: 1, Input: in},
		{T: recClose, SID: "s1"},
	}
	var got []*walRecord
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back walRecord
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got = append(got, &back)
	}
	if got[0].T != recOpen || got[0].Model != "short" {
		t.Errorf("open record mangled: %+v", got[0])
	}
	if got[1].Seq != 1 || !got[1].Input.Has("order", relation.Tuple{"time"}) {
		t.Errorf("step record mangled: %+v", got[1])
	}
	if got[2].T != recClose {
		t.Errorf("close record mangled: %+v", got[2])
	}
}

// Install records carry a full image; the image must survive the WAL trip
// with its log and state intact, because replay restores from it alone.
// The image is SHORT's after order(time) on the magazine database, whose
// log is the bill that step sent.
func TestWALInstallRecordRoundTrip(t *testing.T) {
	in := step(t, fact("order", "time"))
	bill := step(t, fact("sendbill", "time", "855"))
	img := &Image{
		ID:    "shipped",
		Model: "short",
		Mode:  "all",
		DB:    models.DefaultDB("short"),
		State: step(t, fact("past-order", "time")),
		Logs:  relation.Sequence{bill},
		Steps: 1,
	}
	data, err := json.Marshal(&walRecord{T: recInstall, SID: "shipped", Image: img})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeWALPayload(codec.NewDecoder(), data)
	if err != nil {
		t.Fatal(err)
	}
	if back.T != recInstall || back.Image == nil {
		t.Fatalf("install record mangled: %+v", back)
	}
	if back.Image.Steps != 1 || back.Image.tape == nil || back.Image.Logs != nil {
		t.Errorf("image mangled or its log not on a tape: %+v", back.Image)
	}
	s, err := back.Image.restore()
	if err != nil {
		t.Fatal(err)
	}
	if past := machineOf(s).stepper.Past(); s.id != "shipped" || s.steps != 1 || !past.Equal(in) {
		t.Errorf("restored session mangled: id=%s steps=%d past=%s", s.id, s.steps, past)
	}
	if got := machineOf(s).log(); len(got) != 1 || !got[0].Equal(bill) {
		t.Errorf("restored log %v, want [%v]", got, bill)
	}
	// A log the machine could not have written is refused, as state is:
	// SHORT does not log its orders.
	img.Logs = relation.Sequence{in}
	if data, err = json.Marshal(&walRecord{T: recInstall, SID: "shipped", Image: img}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWALPayload(codec.NewDecoder(), data); err == nil {
		t.Error("an image logging a relation SHORT does not log decoded")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("want error for bogus policy")
	}
	if p, err := ParseFsyncPolicy(""); err != nil || p != FsyncAlways {
		t.Errorf("empty policy: got %v, %v; want always", p, err)
	}
}
