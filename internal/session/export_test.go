package session

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/relation"
)

// step feeds one order/pay input to the session, failing the test on error.
func stepInput(t *testing.T, e *Engine, id string, rel string, args ...string) *StepResult {
	t.Helper()
	in := relation.NewInstance()
	tup := make(relation.Tuple, len(args))
	for i, a := range args {
		tup[i] = relation.Const(a)
	}
	in.Add(rel, tup)
	res, err := e.Input(id, in)
	if err != nil {
		t.Fatalf("input %s%v: %v", rel, args, err)
	}
	return res
}

// TestShipRoundtrip hands a session from one engine to another by shipping
// its state image and checks freeze, idempotent re-export, install, and
// forget semantics, and that the installed log is identical.
func TestShipRoundtrip(t *testing.T) {
	src, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Shutdown()
	if _, err := src.Open(&OpenRequest{ID: "h1", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	stepInput(t, src, "h1", "order", "newsweek")
	stepInput(t, src, "h1", "pay", "newsweek", "20")
	want, err := src.Log("h1")
	if err != nil {
		t.Fatal(err)
	}

	image, err := src.ExportState("h1")
	if err != nil {
		t.Fatal(err)
	}
	se, err := DecodeStateExport(image)
	if err != nil {
		t.Fatal(err)
	}
	if se.Image.Steps != 2 || se.Image.tape.Len() != 2 || se.Digest != LogDigest(want.Log) {
		t.Fatalf("export: steps=%d logs=%d digest=%s, want 2/2/%s", se.Image.Steps, se.Image.tape.Len(), se.Digest, LogDigest(want.Log))
	}

	// Frozen: mutations fail, reads keep working, export is idempotent.
	in := relation.NewInstance()
	in.Add("order", relation.Tuple{"time"})
	var frozen *FrozenError
	if _, err := src.Input("h1", in); !errors.As(err, &frozen) {
		t.Fatalf("input on frozen session: %v, want FrozenError", err)
	}
	if _, err := src.Close("h1"); !errors.As(err, &frozen) {
		t.Fatalf("close on frozen session: %v, want FrozenError", err)
	}
	if _, err := src.Log("h1"); err != nil {
		t.Fatalf("log on frozen session: %v", err)
	}
	if again, err := src.ExportState("h1"); err != nil || !bytes.Equal(again, image) {
		t.Fatalf("re-export: err=%v, same bytes=%v", err, bytes.Equal(again, image))
	}

	// Install on the target; a second install of the same ID conflicts.
	dst, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	if info, err := dst.Install(image); err != nil || info.Steps != 2 {
		t.Fatalf("install: %+v, %v", info, err)
	}
	var conflict *ConflictError
	if _, err := dst.Install(image); !errors.As(err, &conflict) {
		t.Fatalf("second install: %v, want ConflictError", err)
	}
	got, err := dst.Log("h1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != want.Steps || !got.Log.Equal(want.Log) {
		t.Fatalf("installed log differs:\n got %s\nwant %s", got.Log, want.Log)
	}

	// Retire the source copy; it is gone there, alive on the target.
	if err := src.Forget("h1"); err != nil {
		t.Fatal(err)
	}
	var nf *NotFoundError
	if _, err := src.Log("h1"); !errors.As(err, &nf) {
		t.Fatalf("log after forget: %v, want NotFoundError", err)
	}
	stepInput(t, dst, "h1", "order", "time") // the moved session keeps serving
}

// TestInstallRejectsDamagedImage: bytes that do not decode, and an image
// whose digest does not match its log, are client errors and open nothing.
func TestInstallRejectsDamagedImage(t *testing.T) {
	src, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Shutdown()
	if _, err := src.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	stepInput(t, src, "s", "order", "time")
	image, err := src.ExportState("s")
	if err != nil {
		t.Fatal(err)
	}
	se, err := DecodeStateExport(image)
	if err != nil {
		t.Fatal(err)
	}
	se.Digest = LogDigest(nil) // a well-formed digest of some other log
	wrongDigest, err := EncodeStateExport(se)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	var bad *BadInputError
	for name, data := range map[string][]byte{"truncated": image[:len(image)/2], "wrong digest": wrongDigest, "empty": nil} {
		if _, err := dst.Install(data); !errors.As(err, &bad) {
			t.Errorf("install %s image: %v, want BadInputError", name, err)
		}
	}
	if infos, _ := dst.List(); len(infos) != 0 {
		t.Fatalf("rejected installs opened %d sessions", len(infos))
	}
}

// TestForgetRequiresFreeze checks a stray forget cannot drop a live session.
func TestForgetRequiresFreeze(t *testing.T) {
	e, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	var bad *BadInputError
	if err := e.Forget("s"); !errors.As(err, &bad) {
		t.Fatalf("forget without export: %v, want BadInputError", err)
	}
	if err := e.Unfreeze("s"); err != nil { // no-op on an unfrozen session
		t.Fatal(err)
	}
}

// TestUnfreezeAbortsHandoff checks an aborted handoff resumes cleanly, and
// that the exported bytes are a copy: steps applied after the thaw do not
// change an image already in the caller's hands, which still installs.
func TestUnfreezeAbortsHandoff(t *testing.T) {
	e, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	stepInput(t, e, "s", "order", "newsweek")
	atExport, err := e.Log("s")
	if err != nil {
		t.Fatal(err)
	}
	image, err := e.ExportState("s")
	if err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), image...)
	if err := e.Unfreeze("s"); err != nil {
		t.Fatal(err)
	}
	stepInput(t, e, "s", "pay", "newsweek", "20")
	stepInput(t, e, "s", "order", "time")
	if !bytes.Equal(image, held) {
		t.Fatal("steps after Unfreeze changed an already exported image")
	}

	dst, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	if _, err := dst.Install(image); err != nil {
		t.Fatalf("install of the held image: %v", err)
	}
	got, err := dst.Log("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 1 || !got.Log.Equal(atExport.Log) {
		t.Fatalf("held image installed as %d steps %s, want the log at export time %s", got.Steps, got.Log, atExport.Log)
	}
}

// TestShipSurvivesSnapshotRecovery checks everything a ship image needs —
// state, log, and the cumulated past — survives WAL compaction and restart,
// so a recovered session ships like any other.
func TestShipSurvivesSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	stepInput(t, e, "s", "order", "newsweek")
	stepInput(t, e, "s", "pay", "newsweek", "20")
	want, err := e.Log("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(); err != nil { // snapshots, truncating the WAL
		t.Fatal(err)
	}

	e2, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	image, err := e2.ExportState("s")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()
	if _, err := dst.Install(image); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Log("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 2 || !got.Log.Equal(want.Log) {
		t.Fatalf("shipped log after recovery: %d steps %s, want %s", got.Steps, got.Log, want.Log)
	}
	view, err := dst.Peek("s")
	if err != nil {
		t.Fatal(err)
	}
	if !view.Past.Has("order", relation.Tuple{"newsweek"}) || !view.Past.Has("pay", relation.Tuple{"newsweek", "20"}) || view.Past.Len() != 2 {
		t.Fatalf("recovered and shipped past: %s", view.Past)
	}
}

// shipFlags reads the presence bits of a ship image: the image's, and its
// network part's (0 for a machine image).
func shipFlags(t *testing.T, image []byte) (img, net uint64) {
	t.Helper()
	r, err := codec.NewDecoder().Record(image)
	if err != nil {
		t.Fatal(err)
	}
	r.Uvarint() // kind
	r.Bytes()   // digest
	r.Str()     // id
	r.Str()     // model
	r.Str()     // src
	r.Str()     // mode
	r.Int()     // steps
	r.Bool()    // errorFree
	r.Bool()    // okEvery
	r.Bool()    // lastAccept
	img = r.Uvarint()
	for _, skip := range []struct {
		bit  uint64
		read func()
	}{
		{imgHasDB, func() { r.Instance() }},
		{imgHasState, func() { r.Instance() }},
		{imgHasLogs, func() { r.Sequence() }},
		{imgLegacyInputs, func() { r.Sequence() }},
		{imgLegacyPast, func() { r.Instance() }},
		{imgHasKeys, func() { decodeKeyTable(r) }},
		{imgHasNet, func() { net = r.Uvarint() }},
	} {
		if img&skip.bit != 0 {
			skip.read()
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return img, net
}

// TestImagesCarryNoPast: the past verification reads is derived from the
// state, so no image of a machine or a network session, at any depth,
// writes one — and an image installed elsewhere hands verification the same
// past as the session it was taken from.
func TestImagesCarryNoPast(t *testing.T) {
	src := memEngine(t, 1)
	if _, err := src.Open(&OpenRequest{ID: "m", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Open(&OpenRequest{ID: "n", Network: models.Network("marketplace")}); err != nil {
		t.Fatal(err)
	}
	inputs, script := models.Fig1Inputs(), models.NetworkScript("marketplace", "widget")
	for depth := 0; depth <= len(script); depth++ {
		if depth > 0 && depth <= len(inputs) {
			if _, err := src.Input("m", inputs[depth-1]); err != nil {
				t.Fatal(err)
			}
		}
		if depth > 0 {
			if _, err := src.NetInput("n", script[depth-1]); err != nil {
				t.Fatal(err)
			}
		}
		dst := memEngine(t, 1)
		for _, id := range []string{"m", "n"} {
			image, err := src.ExportState(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Unfreeze(id); err != nil {
				t.Fatal(err)
			}
			if img, net := shipFlags(t, image); img&imgLegacyPast != 0 || net&netLegacyPast != 0 {
				t.Fatalf("%s at depth %d: image flags %b, net flags %b carry a past", id, depth, img, net)
			}
			if _, err := dst.Install(image); err != nil {
				t.Fatal(err)
			}
			want, err := src.Peek(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dst.Peek(id)
			if err != nil {
				t.Fatal(err)
			}
			if viewPast(got) != viewPast(want) {
				t.Fatalf("%s at depth %d: installed past %s, want %s", id, depth, viewPast(got), viewPast(want))
			}
		}
	}
}

// TestSnapshotSizeTracksStateNotHistory: a session fed the same input over
// and over has constant state, so its snapshot may grow only by its log.
func TestSnapshotSizeTracksStateNotHistory(t *testing.T) {
	e, err := NewEngine(Config{Dir: t.TempDir(), Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	// measure steps the session to n steps, snapshots, and returns the
	// snapshot's size and the canonical size of the log it holds.
	steps, snapTotal := 0, int64(0)
	measure := func(n int) (snap, log int64) {
		for ; steps < n; steps++ {
			stepInput(t, e, "s", "order", "time")
		}
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
		lr, err := e.Log("s")
		if err != nil {
			t.Fatal(err)
		}
		total := e.Stats().SnapshotBytesTotal
		snap, snapTotal = total-snapTotal, total
		return snap, int64(len(codec.Canonical(func(enc *codec.Encoder) { enc.Sequence(lr.Log) })))
	}
	snap100, log100 := measure(100)
	snap1000, log1000 := measure(1000)
	// Slack: the step counter and sequence length each gain a varint byte.
	if limit := snap100 + (log1000 - log100) + 8; snap1000 > limit {
		t.Fatalf("snapshot at 1000 steps is %dB, at 100 steps %dB with %dB of log growth: history is being retained (limit %dB)",
			snap1000, snap100, log1000-log100, limit)
	}
}

// TestMailboxOverload parks a shard's lock, lets one caller queue behind it
// so a depth-1 shard is at its bound, and checks the next Input is rejected
// with OverloadedError, counted, and accepted again once the queue drains.
func TestMailboxOverload(t *testing.T) {
	e, err := NewEngine(Config{Shards: 1, MailboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}

	// Park the shard on a request that holds its lock until released, then
	// queue a second caller behind it.
	sh := e.shards[0]
	release := make(chan struct{})
	parked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sh.run(true, func(*shard) (any, error) {
			close(parked)
			<-release
			return nil, nil
		})
		close(done)
	}()
	<-parked
	queued := make(chan struct{})
	go func() {
		sh.run(true, func(*shard) (any, error) { return nil, nil })
		close(queued)
	}()
	// Wait for the queued caller to count itself as waiting for the lock.
	for sh.waiting.Load() == 0 {
		runtime.Gosched()
	}

	in := relation.NewInstance()
	in.Add("order", relation.Tuple{"time"})
	_, err = e.Input("s", in)
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("input with a full queue: %v, want OverloadedError", err)
	}
	if got := e.Stats().RejectedTotal; got != 1 {
		t.Fatalf("RejectedTotal = %d, want 1", got)
	}
	close(release)
	<-done
	<-queued
	stepInput(t, e, "s", "order", "time") // drained: accepted again
}
