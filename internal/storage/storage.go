// Package storage is the durability plane of the serving engine: it owns
// everything that touches disk so the session layer can stay a pure state
// machine. One Store owns one directory and provides
//
//   - a segmented write-ahead log: append-only segment files rotated at a
//     size threshold, CRC-framed length-prefixed records, and a manifest
//     naming the committed snapshot and the first live segment;
//   - group commit: Append neither writes nor syncs by itself — the owner
//     appends a batch and calls Commit once, so adjacent records share a
//     single write and, under FsyncAlways, a single fsync without
//     weakening the ack contract (the caller releases acks only after
//     Commit returns);
//   - streaming snapshots: records are written one at a time to a temp
//     file and made live by an atomic rename + manifest flip, after which
//     pre-snapshot segments are deleted. A crash at any point leaves
//     either the old snapshot+segments or the new ones, never a mix.
//
// A Store is single-owner: exactly one goroutine (the engine's shard loop)
// may use it after Recover. Nothing here locks.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// FsyncPolicy controls when appended records are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs on every Commit: a record acknowledged after
	// Commit is durable even across power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per configured interval: a crash
	// may lose the last interval's worth of acknowledged records, but
	// never corrupts the log (replay stops at the first torn record).
	FsyncInterval
	// FsyncNever leaves syncing to the operating system. Process crashes
	// (kill -9) lose nothing that reached the kernel via write; only power
	// loss can drop acknowledged records.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// ParseFsyncPolicy parses a policy name as produced by String. The empty
// string parses as FsyncAlways, the safe default.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("unknown fsync policy %q", s)
}

// Options tunes a Store.
type Options struct {
	// Fsync selects when Commit flushes (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size (default 64 MiB). Rotation seals (syncs and closes) the old
	// segment before the next record lands in a fresh one.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Record framing, shared by WAL segments and snapshot files:
//
//	[payload length: 4 bytes big-endian] [CRC-32 (IEEE) of payload: 4 bytes] [payload]
//
// The CRC guards against torn or bit-rotted tails; segment replay stops
// (and the file is truncated) at the first record that fails to frame or
// checksum.
const frameHeader = 8

// appendFrame appends payload, framed, to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// readFrames iterates the well-framed records of data, calling apply for
// each payload in order. It returns the number of records applied and the
// offset of the first byte that does not begin a complete, checksummed
// record (len(data) when the whole buffer frames cleanly). An error from
// apply aborts the scan.
func readFrames(data []byte, apply func([]byte) error) (int, int, error) {
	off, n := 0, 0
	for {
		if off+frameHeader > len(data) {
			return n, off, nil
		}
		length := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if off+frameHeader+length > len(data) {
			return n, off, nil
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return n, off, nil
		}
		if err := apply(payload); err != nil {
			return n, off, err
		}
		off += frameHeader + length
		n++
	}
}
