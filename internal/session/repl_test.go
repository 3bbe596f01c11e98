package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/storage"
)

// storedWAL decodes a shard directory's WAL in segment order, the way
// recovery does, and returns each LSN's payload and record (as JSON).
func storedWAL(t *testing.T, dir string) (map[int64][]byte, map[int64]string) {
	t.Helper()
	payloads, recs := map[int64][]byte{}, map[int64]string{}
	dec := codec.NewDecoder()
	var lsn int64
	_, err := storage.ScanDir(dir, func(r *storage.DumpRecord) error {
		if r.Snapshot {
			t.Fatalf("unexpected snapshot %s", r.File)
		}
		lsn++
		rec, err := decodeWALPayload(dec, r.Payload)
		if err != nil {
			return err
		}
		js, err := json.Marshal(rec)
		payloads[lsn], recs[lsn] = r.Payload, string(js)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, recs
}

// TestStreamReadersShareNothing: readers of one shard's stream keep their
// own decoders, so no reader's reads change what another decodes. The
// interleaving is the one a shared, table-length-synchronised stream
// encoder got wrong. Reader A reads LSN 2, order(time). Reader B, from
// nothing, reads LSN 3, order(newsweek), which left the shared table as
// long as A's but different. A then read LSN 3 against its own table and
// decoded order(time). Every record each reader is handed to apply must be
// the one the primary wrote at that LSN, and every frame must be the
// segment's payload as stored.
func TestStreamReadersShareNothing(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Config{Dir: dir, Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	order := func(item relation.Const) {
		in := relation.NewInstance()
		in.Add("order", relation.Tuple{item})
		if _, err := e.Input("s", in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	order("time") // LSN 2

	type applied struct {
		lsn int64
		rec string
	}
	got := map[string][]applied{}
	var frames []storage.ReplRecord
	read := func(reader string, d *ReplDecoder, from int64) {
		t.Helper()
		b, err := e.StreamWAL(context.Background(), 0, from, 0, d.Pos())
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b.Frames...)
		err = d.decode(b, func(lsn int64, rec *walRecord) error {
			js, err := json.Marshal(rec)
			got[reader] = append(got[reader], applied{lsn, string(js)})
			return err
		})
		if err != nil {
			t.Fatalf("reader %s from %d: %v", reader, from, err)
		}
	}
	a, b := NewReplDecoder(), NewReplDecoder()
	read("A", a, 2)
	order("newsweek") // LSN 3
	read("B", b, 3)
	read("A", a, 3)

	payloads, recs := storedWAL(t, filepath.Join(dir, "shard-000"))
	for reader, want := range map[string][]int64{"A": {2, 3}, "B": {3}} {
		if len(got[reader]) != len(want) {
			t.Fatalf("reader %s applied %d records, want LSNs %v", reader, len(got[reader]), want)
		}
		for i, lsn := range want {
			if g := got[reader][i]; g.lsn != lsn || g.rec != recs[lsn] {
				t.Errorf("reader %s at LSN %d applied %s\nthe primary wrote %s", reader, lsn, g.rec, recs[lsn])
			}
		}
	}
	for _, f := range frames {
		if !bytes.Equal(f.Payload, payloads[f.LSN]) {
			t.Errorf("frame at LSN %d is not the stored payload", f.LSN)
		}
	}
}

// TestStreamHTTPPosition: over HTTP a poll without a position starts at the
// first frame of from's segment, a poll that sends back the batch's epoch
// and its last decoded LSN resumes right after it, and a malformed position
// is a 400.
func TestStreamHTTPPosition(t *testing.T) {
	e, err := NewEngine(Config{Dir: t.TempDir(), Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(e))
	defer func() {
		srv.Close()
		e.Shutdown()
	}()
	if _, err := e.Open(&OpenRequest{ID: "s", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	for _, in := range models.Fig1Inputs()[:2] {
		if _, err := e.Input("s", in); err != nil {
			t.Fatal(err)
		}
	}
	base := srv.URL + "/admin/wal/stream?shard=0&wait=0s"
	var cold WALBatch
	if code := call(t, "GET", base+"&from=3", nil, &cold); code != 200 || cold.From != 3 || cold.Epoch == 0 ||
		len(cold.Frames) != 3 || cold.Frames[0].LSN != 1 {
		t.Fatalf("cold poll: %d %+v, want LSNs 1..3 to apply from 3", code, cold)
	}
	var warm WALBatch
	url := fmt.Sprintf("%s&from=3&epoch=%d&decoded=2", base, cold.Epoch)
	if code := call(t, "GET", url, nil, &warm); code != 200 || len(warm.Frames) != 1 || warm.Frames[0].LSN != 3 ||
		!bytes.Equal(warm.Frames[0].Payload, cold.Frames[2].Payload) {
		t.Fatalf("warm poll: %d %+v, want LSN 3 alone", code, warm)
	}
	for _, q := range []string{"&epoch=-1", "&epoch=x", "&decoded=x"} {
		if code := call(t, "GET", base+"&from=3"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("poll with %s: %d, want 400", q, code)
		}
	}
}
