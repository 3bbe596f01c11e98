package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/relation"
	"repro/internal/session"
)

// codecMatrixRow is one write codec's cell of `bench -codec-matrix`: the
// four durability surfaces measured over a WAL in that encoding. Ship images
// and the replication stream are binary whatever the WAL holds; their columns
// show what transcoding from each stored form costs. The binary row carries
// the json/binary WAL density ratio.
type codecMatrixRow struct {
	Codec           string  `json:"codec"`
	Steps           int     `json:"steps"`
	WALBytesPerStep float64 `json:"wal_bytes_per_step"`
	RecoveryMs      float64 `json:"recovery_ms"`
	ShipMs          float64 `json:"ship_ms"`
	ShipBytes       int     `json:"ship_bytes"`
	StreamBytes     int     `json:"stream_bytes"` // full replication fetch, JSON envelope included
	WALRatioVsJSON  float64 `json:"wal_ratio_vs_json,omitempty"`
}

// benchCodecMatrix measures the WAL codec on every surface it touches: WAL
// density (bytes per step), crash recovery (replaying the whole run),
// session ship (export-state → install, encode and decode included), and
// the replication stream (one full fetch of the shard's WAL as the wire
// would carry it). One long session, each codec on a fresh temp dir;
// snapshots are disabled so recovery replays every record.
func benchCodecMatrix(model string, db relation.Instance, script func(int, int) relation.Instance, steps int) {
	var rows []codecMatrixRow
	base := codecMatrixRow{}
	for _, cdc := range []session.Codec{session.CodecJSON, session.CodecBinary} {
		dir, err := os.MkdirTemp("", "spocus-codec-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		eng, err := session.NewEngine(session.Config{
			Dir: dir, Shards: 1, Fsync: session.FsyncNever, SnapshotEvery: -1, Codec: cdc,
		})
		if err != nil {
			fatal(err)
		}
		const id = "codec-bench"
		if _, err := eng.Open(&session.OpenRequest{ID: id, Model: model, DB: db}); err != nil {
			fatal(err)
		}
		for j := 0; j < steps; j++ {
			if _, err := eng.Input(id, script(0, j)); err != nil {
				fatal(err)
			}
		}
		row := codecMatrixRow{
			Codec:           cdc.String(),
			Steps:           steps,
			WALBytesPerStep: float64(eng.Stats().WALBytesTotal) / float64(steps),
		}

		// Ship: export on the source, install on a fresh in-memory target,
		// encode/decode and digest verification included. Best of 3.
		row.ShipMs, row.ShipBytes = shipOnce(eng, id)
		for i := 0; i < 2; i++ {
			if ms, _ := shipOnce(eng, id); ms < row.ShipMs {
				row.ShipMs = ms
			}
		}

		// Replication stream: fetch the whole WAL and apply it to a
		// follower-like in-memory engine, counting the JSON envelope bytes
		// the wire actually carries, polling with the follower decoder's
		// table length exactly like internal/replica.
		follower, err := session.NewEngine(session.Config{Shards: 1})
		if err != nil {
			fatal(err)
		}
		dec := session.NewReplDecoder()
		var from int64
		for {
			b, err := eng.StreamWAL(context.Background(), 0, from, 0, dec.TableLen())
			if err != nil {
				fatal(err)
			}
			data, err := json.Marshal(b)
			if err != nil {
				fatal(err)
			}
			row.StreamBytes += len(data)
			if len(b.Records) == 0 {
				break
			}
			if _, err := follower.ApplyReplicated(dec, b); err != nil {
				fatal(err)
			}
			from = b.Records[len(b.Records)-1].LSN + 1
		}
		if open := follower.Stats().SessionsOpen; open != 1 {
			fatal(fmt.Errorf("codec matrix: stream applied %d sessions, want 1", open))
		}
		follower.Shutdown()

		// Recovery: abandon without Shutdown (crash-style) and time a fresh
		// engine replaying the full WAL.
		start := time.Now()
		e2, err := session.NewEngine(session.Config{Dir: dir, Shards: 1, SnapshotEvery: -1})
		if err != nil {
			fatal(err)
		}
		row.RecoveryMs = float64(time.Since(start).Microseconds()) / 1000
		if e2.Stats().SessionsOpen != 1 {
			fatal(fmt.Errorf("codec matrix: recovered %d sessions, want 1", e2.Stats().SessionsOpen))
		}
		e2.Shutdown()

		if cdc == session.CodecJSON {
			base = row
		} else if base.WALBytesPerStep > 0 {
			row.WALRatioVsJSON = base.WALBytesPerStep / row.WALBytesPerStep
		}
		rows = append(rows, row)
	}
	emit(rows)
}

// shipOnce times one export-state → install round trip onto a fresh
// in-memory engine, returning (milliseconds, shipped bytes). The source
// session is unfrozen again afterwards.
func shipOnce(eng *session.Engine, id string) (float64, int) {
	target, err := session.NewEngine(session.Config{Shards: 1})
	if err != nil {
		fatal(err)
	}
	defer target.Shutdown()
	defer eng.Unfreeze(id)
	start := time.Now()
	image, err := eng.ExportState(id)
	if err != nil {
		fatal(err)
	}
	if _, err := target.Install(image); err != nil {
		fatal(err)
	}
	return float64(time.Since(start).Microseconds()) / 1000, len(image)
}
