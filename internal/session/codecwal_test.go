package session

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Durability tests for the binary WAL codec: recovery across JSON-era and
// binary records, mixed-format segments, torn binary tails, and a fuzz
// seeded from payloads a real engine wrote. The engine writes binary only;
// JSON records are produced here the way a JSON-codec server wrote them.

func lastSegment(t *testing.T, shardDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(shardDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", shardDir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// frameFor renders a payload in the storage frame format (4-byte BE length,
// 4-byte CRC-32, payload) so tests can hand-append records to a segment.
func frameFor(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf
}

// legacyShard starts an engine on dir and abandons it, as a crash would,
// then appends the given records to its shard's segment in the JSON
// encoding of the parent format: one json.Marshal per record, framed.
func legacyShard(t *testing.T, dir string, recs ...*walRecord) {
	t.Helper()
	if _, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways, SnapshotEvery: -1}); err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(lastSegment(t, filepath.Join(dir, "shard-000")), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(frameFor(payload)); err != nil {
			t.Fatal(err)
		}
	}
}

// shortRecords returns the WAL records of SHORT session id opened and then
// stepped on inputs.
func shortRecords(t *testing.T, id string, inputs relation.Sequence) []*walRecord {
	t.Helper()
	s, err := newSession(id, &OpenRequest{Model: "short"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*walRecord{s.openRecord()}
	for i, in := range inputs {
		recs = append(recs, &walRecord{T: recStep, SID: id, Seq: i + 1, Input: in})
	}
	return recs
}

// TestMixedCodecRecovery runs one session through JSON-era records, a crash,
// a binary engine, and another crash. Recovery replays both formats into
// one history — the per-record auto-detection that lets an engine upgrade
// in place over a JSON-codec server's directory.
func TestMixedCodecRecovery(t *testing.T) {
	dir := t.TempDir()
	_, wantLogs := fig1Reference(t)
	inputs := models.Fig1Inputs()

	legacyShard(t, dir, shortRecords(t, "crashy", inputs[:1])...)
	// Reopen on the binary engine and keep stepping.
	e2, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if lr, err := e2.Log("crashy"); err != nil || !lr.Log.Equal(wantLogs[:1]) {
		t.Fatalf("after JSON replay: log=%v err=%v", lr, err)
	}
	if _, err := e2.Input("crashy", inputs[1]); err != nil {
		t.Fatal(err)
	}
	// Crash again; the WAL now holds JSON and binary segments.
	e3, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Shutdown()
	lr, err := e3.Log("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs[:2]) {
		t.Fatalf("mixed replay log:\n got %s\nwant %s", lr.Log, wantLogs[:2])
	}
	res, err := e3.Input("crashy", inputs[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 {
		t.Fatalf("step after mixed recovery: seq=%d", res.Seq)
	}
	lr, _ = e3.Log("crashy")
	if !lr.Log.Equal(wantLogs[:3]) {
		t.Errorf("final log differs:\n got %s\nwant %s", lr.Log, wantLogs[:3])
	}
}

// TestMixedSegmentTornTailRecovery builds a single segment holding JSON
// records followed by binary records followed by a torn frame — the layout
// a mid-run codec upgrade plus a crash would leave — and recovers through
// it. The binary records carry the reset flag (fresh encoder), which is
// exactly how a decoder resynchronizes mid-segment.
func TestMixedSegmentTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	_, wantLogs := fig1Reference(t)
	inputs := models.Fig1Inputs()

	legacyShard(t, dir, shortRecords(t, "crashy", inputs[:2])...)
	// Append a binary step record to the same segment, then a torn
	// half-frame after it.
	enc := codec.NewEncoder()
	payload, err := encodeWALRecord(enc, &walRecord{T: recStep, SID: "crashy", Seq: 3, Input: inputs[2]})
	if err != nil {
		t.Fatal(err)
	}
	torn, err := encodeWALRecord(enc, &walRecord{T: recStep, SID: "crashy", Seq: 4, Input: inputs[0]})
	if err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, filepath.Join(dir, "shard-000"))
	fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write(frameFor(payload))
	fh.Write(frameFor(torn)[:8+len(torn)/2]) // torn mid-payload
	fh.Close()

	e2, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	lr, err := e2.Log("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs[:3]) {
		t.Fatalf("mixed-segment replay log:\n got %s\nwant %s", lr.Log, wantLogs[:3])
	}
}

// TestTornBinaryTailRecovery chops bytes off a binary segment's tail and
// recovers: the torn record is truncated away (exactly the JSON-era
// behavior) and the session continues from the last whole record.
func TestTornBinaryTailRecovery(t *testing.T) {
	dir := t.TempDir()
	_, wantLogs := fig1Reference(t)
	inputs := models.Fig1Inputs()

	e1, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Open(&OpenRequest{ID: "crashy", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs[:3] {
		if _, err := e1.Input("crashy", in); err != nil {
			t.Fatal(err)
		}
	}
	// Crash, then tear the last record.
	seg := lastSegment(t, filepath.Join(dir, "shard-000"))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	lr, err := e2.Log("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Log.Equal(wantLogs[:2]) {
		t.Fatalf("torn-tail replay log:\n got %s\nwant %s", lr.Log, wantLogs[:2])
	}
	// Re-apply the lost step; the session continues cleanly.
	res, err := e2.Input("crashy", inputs[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 {
		t.Fatalf("step after torn-tail recovery: seq=%d", res.Seq)
	}
	lr, _ = e2.Log("crashy")
	if !lr.Log.Equal(wantLogs[:3]) {
		t.Errorf("final log differs:\n got %s\nwant %s", lr.Log, wantLogs[:3])
	}
}

// FuzzCodecRoundTrip fuzzes the WAL payload decoder over real payloads: a
// throwaway engine writes WAL segments and a snapshot, and every framed
// payload on disk becomes a seed, a network session's among them. The
// properties: decoding never panics, and any payload that decodes
// re-encodes canonically to an equivalent record.
func FuzzCodecRoundTrip(f *testing.F) {
	dir := f.TempDir()
	e, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways, SnapshotEvery: 2})
	if err != nil {
		f.Fatal(err)
	}
	// Every framed payload the engine writes becomes a seed. The shard is
	// scanned after each call, because compaction deletes the segments a
	// snapshot covers. Each payload is also decoded in its file's order and
	// re-encoded on a fresh encoder, a seed that decodes on its own (a
	// payload on disk may use constants its file interned earlier); a
	// snapshot image is re-encoded as an install record.
	next := map[string]int{} // file → index of its first unscanned record
	decs := map[string]*codec.Decoder{}
	var netOpen, netIn bool
	var netImg *Image
	scan := func(_ any, err error) {
		if err != nil {
			f.Fatal(err)
		}
		if _, err := storage.ScanDir(filepath.Join(dir, "shard-000"), func(r *storage.DumpRecord) error {
			if r.Index < next[r.File] {
				return nil
			}
			next[r.File] = r.Index + 1
			f.Add(append([]byte(nil), r.Payload...))
			if decs[r.File] == nil {
				decs[r.File] = codec.NewDecoder()
			}
			var rec *walRecord
			if r.Snapshot {
				_, img, err := decodeSnapPayload(decs[r.File], r.Payload, r.Index == 0)
				if err != nil || img == nil {
					return err
				}
				rec = &walRecord{T: recInstall, SID: img.ID, Image: img}
			} else if rec, err = decodeWALPayload(decs[r.File], r.Payload); err != nil {
				return err
			}
			alone, err := encodeWALRecord(codec.NewEncoder(), rec)
			if err != nil {
				return err
			}
			f.Add(alone)
			if rec, err = decodeWALPayload(codec.NewDecoder(), alone); err != nil {
				return err
			}
			switch {
			case rec.T == recOpen && rec.Network != nil:
				netOpen = true
			case rec.T == recStep && rec.NetIn != nil:
				netIn = true
			case rec.T == recInstall && rec.Image.Net != nil:
				netImg = rec.Image
			}
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	scan(e.Open(&OpenRequest{ID: "fz", Model: "short"}))
	for _, in := range models.Fig1Inputs() {
		scan(e.Input("fz", in))
	}
	scan(e.Open(&OpenRequest{ID: "fz2", Model: "subscription"}))
	scan(e.Close("fz2"))
	// A network image arrives over HTTP too (Install), so the network
	// kinds must each be in the corpus: an open, a joint step and an image.
	scan(e.Open(&OpenRequest{ID: "fzn", Network: models.Network("marketplace")}))
	for _, ext := range models.NetworkScript("marketplace", "widget") {
		scan(e.NetInput("fzn", ext))
	}
	if !netOpen || !netIn || netImg == nil {
		f.Fatalf("no seed decodes alone to each network kind: open %v, joint step %v, image %v",
			netOpen, netIn, netImg != nil)
	}
	f.Add([]byte{0xC5})             // bare magic byte
	f.Add([]byte{0xC5, 0x01, 0x01}) // empty reset record
	f.Add([]byte(`{"t":"step","sid":"x","seq":1}`))
	// JSON-era install records whose image carries its log as values: one
	// SHORT could have written, one logging a relation SHORT does not log,
	// and one of a model no registry holds.
	for _, img := range []*Image{
		{ID: "j", Model: "short", Mode: "all", Steps: 1, Logs: relation.Sequence{step(f, fact("sendbill", "time", "855"))}},
		{ID: "j", Model: "short", Mode: "all", Steps: 1, Logs: relation.Sequence{step(f, fact("order", "time"))}},
		{ID: "j", Model: "no-such-model", Mode: "all", Steps: 1, Logs: relation.Sequence{step(f, fact("sendbill", "time", "855"))}},
	} {
		data, err := json.Marshal(&walRecord{T: recInstall, SID: "j", Image: img})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A JSON-era network install: the marketplace image, which must decode.
	data, err := json.Marshal(&walRecord{T: recInstall, SID: "j", Image: netImg})
	if err != nil {
		f.Fatal(err)
	}
	if rec, err := decodeWALPayload(codec.NewDecoder(), data); err != nil || rec.Image.Net == nil {
		f.Fatalf("the JSON-era network install does not decode: %v", err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALPayload(codec.NewDecoder(), data)
		if err == nil && rec != nil {
			enc := codec.NewEncoder()
			bin, err := encodeWALRecord(enc, rec)
			if err != nil {
				t.Fatalf("re-encode of decoded record failed: %v", err)
			}
			rec2, err := decodeWALPayload(codec.NewDecoder(), bin)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			j1, _ := json.Marshal(rec)
			j2, _ := json.Marshal(rec2)
			if !bytes.Equal(j1, j2) {
				t.Fatalf("round trip drift:\n got %s\nwant %s", j2, j1)
			}
			// An image's log is held on a tape whichever format it was
			// decoded from, and JSON does not show the tape: the re-encoded
			// bytes must not drift either.
			if bin2, err := encodeWALRecord(codec.NewEncoder(), rec2); err != nil || !bytes.Equal(bin, bin2) {
				t.Fatalf("re-encoded bytes drift (%v):\n got %x\nwant %x", err, bin2, bin)
			}
		}
		// Snapshot-stream decoding must be panic-free on the same corpus,
		// in both header and image positions.
		sdec := codec.NewDecoder()
		_, _, _ = decodeSnapPayload(sdec, data, true)
		_, _, _ = decodeSnapPayload(sdec, data, false)
	})
}
