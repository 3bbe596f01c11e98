package session

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/storage"
)

// DumpWAL pretty-prints the durable files of one shard directory — the
// manifest's snapshot, then each WAL segment — one line per record, in
// either encoding (JSON records print alongside binary ones, exactly as
// recovery replays them). Read-only: torn tails are reported, never
// truncated, so dumping a live or damaged directory is safe.
func DumpWAL(w io.Writer, dir string) error {
	snapDec := codec.NewDecoder()
	walDec := codec.NewDecoder()
	var (
		lsn      int64
		curFile  string
		fileRecs int
		fileByte int
		firstRec bool
	)
	flush := func() {
		if curFile != "" {
			fmt.Fprintf(w, "  %d records, %d payload bytes\n", fileRecs, fileByte)
		}
	}
	tails, err := storage.ScanDir(dir, func(r *storage.DumpRecord) error {
		if r.File != curFile {
			flush()
			curFile, fileRecs, fileByte = r.File, 0, 0
			kind := "segment"
			if r.Snapshot {
				kind = "snapshot"
			}
			fmt.Fprintf(w, "%s (%s)\n", r.File, kind)
			firstRec = true
		}
		fileRecs++
		fileByte += r.Size
		format := "json"
		if codec.IsBinary(r.Payload) {
			format = "binary"
		}
		if r.Snapshot {
			before := snapDec.TableLen()
			h, img, err := decodeSnapPayload(snapDec, r.Payload, firstRec)
			firstRec = false
			if err != nil {
				fmt.Fprintf(w, "  [%d] %s %4dB UNDECODABLE: %v\n", r.Index, format, r.Size, err)
				return nil
			}
			grew := snapDec.TableLen() - before
			switch {
			case h != nil:
				fmt.Fprintf(w, "  [%d] %s %4dB header version=%d shard=%d intern+%d\n",
					r.Index, format, r.Size, h.Version, h.Shard, grew)
			case img != nil:
				fmt.Fprintf(w, "  [%d] %s %4dB image sid=%s steps=%d intern+%d\n",
					r.Index, format, r.Size, img.ID, img.Steps, grew)
			}
			return nil
		}
		lsn++
		before := walDec.TableLen()
		rec, err := decodeWALPayload(walDec, r.Payload)
		if err != nil {
			fmt.Fprintf(w, "  lsn=%d %s %4dB UNDECODABLE: %v\n", lsn, format, r.Size, err)
			return nil
		}
		grew := walDec.TableLen() - before
		detail := ""
		if rec.Seq > 0 {
			detail = fmt.Sprintf(" seq=%d", rec.Seq)
		}
		if len(rec.Inputs) > 0 {
			detail += fmt.Sprintf(" steps=%d", len(rec.Inputs))
		}
		if rec.Model != "" {
			detail += " model=" + rec.Model
		}
		fmt.Fprintf(w, "  lsn=%d %s %4dB %s sid=%s%s intern+%d\n",
			lsn, format, r.Size, rec.T, rec.SID, detail, grew)
		return nil
	})
	flush()
	if err != nil {
		return err
	}
	for _, tail := range tails {
		fmt.Fprintf(w, "%s: torn tail at offset %d of %d bytes (recovery truncates here)\n",
			tail.File, tail.Offset, tail.Len)
	}
	fmt.Fprintf(w, "intern tables: snapshot=%d entries, wal=%d entries\n",
		snapDec.TableLen(), walDec.TableLen())
	return nil
}
