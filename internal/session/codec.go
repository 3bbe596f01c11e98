package session

import (
	"encoding/json"
	"fmt"

	"repro/internal/codec"
	"repro/internal/compose"
)

// Binary record schemas for everything the session layer makes durable:
// WAL records, snapshot streams (header + images), and ship images. The
// framing, interning, and relational value encodings live in internal/codec;
// this file maps the session types onto them. Every record body starts with
// a kind byte, so a record is identifiable wherever it is met (recovery,
// the replication stream, waldump, a fuzzer).
//
// Binary is the only encoding the engine writes. JSON is a decode-only
// legacy format: every decode path auto-detects per record
// (codec.IsBinary), so WAL segments and snapshots written by older
// JSON-codec servers — and segments holding a mix of both — replay
// unchanged.

// Codec is the type of Config.Codec, which nothing reads: CodecBinary is
// its one value.
type Codec int

// CodecBinary is the compact interned encoding, the only one written.
const CodecBinary Codec = 0

// Record kinds (the first body byte of every binary record).
const (
	kindWAL         = 1 // a walRecord
	kindSnapHeader  = 2 // a snapshot stream's header
	kindImage       = 3 // one session image in a snapshot stream
	kindStateExport = 4 // a ship image (StateExport), canonical encoding
)

// walRecord presence bits.
const (
	walHasDB = 1 << iota
	walHasNetwork
	walHasInput
	walHasNetIn
	walHasImage
	walHasBatch // Inputs + Keys (batch records)
)

func encodeWALRecord(e *codec.Encoder, rec *walRecord) ([]byte, error) {
	e.Uvarint(kindWAL)
	e.Str(rec.T)
	e.Str(rec.SID)
	e.Str(rec.Model)
	e.Str(rec.Src)
	e.Str(rec.Mode)
	e.Str(rec.Key)
	e.Uvarint(uint64(rec.Seq))
	var flags uint64
	if rec.DB != nil {
		flags |= walHasDB
	}
	if rec.Network != nil {
		flags |= walHasNetwork
	}
	if rec.Input != nil {
		flags |= walHasInput
	}
	if rec.NetIn != nil {
		flags |= walHasNetIn
	}
	if rec.Image != nil {
		flags |= walHasImage
	}
	if rec.Inputs != nil {
		flags |= walHasBatch
	}
	e.Uvarint(flags)
	if rec.DB != nil {
		e.Instance(rec.DB)
	}
	if rec.Network != nil {
		spec, err := json.Marshal(rec.Network)
		if err != nil {
			return nil, fmt.Errorf("wal record: network spec: %w", err)
		}
		e.Bytes(spec)
	}
	if rec.Input != nil {
		e.Instance(rec.Input)
	}
	if rec.NetIn != nil {
		e.StepInputs(rec.NetIn)
	}
	if rec.Image != nil {
		if err := encodeImageBody(e, rec.Image); err != nil {
			return nil, err
		}
	}
	if rec.Inputs != nil {
		e.Sequence(rec.Inputs)
		e.Uvarint(uint64(len(rec.Keys)))
		for _, k := range rec.Keys {
			e.Str(k)
		}
	}
	return e.Finish(), nil
}

func decodeWALBody(r *codec.Reader) (*walRecord, error) {
	rec := &walRecord{}
	rec.T = r.Str()
	rec.SID = r.Str()
	rec.Model = r.Str()
	rec.Src = r.Str()
	rec.Mode = r.Str()
	rec.Key = r.Str()
	rec.Seq = r.Int()
	flags := r.Uvarint()
	if flags&walHasDB != 0 {
		rec.DB = r.Instance()
	}
	if flags&walHasNetwork != 0 {
		spec := &compose.Spec{}
		if data := r.Bytes(); r.Err() == nil {
			if err := json.Unmarshal(data, spec); err != nil {
				return nil, fmt.Errorf("wal record: network spec: %w", err)
			}
			rec.Network = spec
		}
	}
	if flags&walHasInput != 0 {
		rec.Input = r.Instance()
	}
	if flags&walHasNetIn != 0 {
		rec.NetIn = r.StepInputs()
	}
	if flags&walHasImage != 0 {
		img, err := decodeImageBody(r)
		if err != nil {
			return nil, err
		}
		rec.Image = img
	}
	if flags&walHasBatch != 0 {
		rec.Inputs = r.Sequence()
		n := r.Int()
		rec.Keys = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rec.Keys = append(rec.Keys, r.Str())
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeWALPayload turns one durable payload into a record, auto-detecting
// the format: binary records go through the stream decoder (which learns
// their intern definitions), JSON records parse standalone.
func decodeWALPayload(dec *codec.Decoder, payload []byte) (*walRecord, error) {
	if !codec.IsBinary(payload) {
		rec := &walRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return nil, fmt.Errorf("wal record: %w", err)
		}
		if rec.Image != nil {
			if err := rec.Image.adoptLogs(); err != nil {
				return nil, fmt.Errorf("wal record: %w", err)
			}
		}
		return rec, nil
	}
	r, err := dec.Record(payload)
	if err != nil {
		return nil, err
	}
	if kind := r.Uvarint(); kind != kindWAL {
		return nil, fmt.Errorf("wal record: unexpected kind %d", kind)
	}
	return decodeWALBody(r)
}

// Image presence bits. The legacy bits mark what older images carried
// beside their state: the input history, then the cumulated past. Both are
// copies of the state's past-R relations, so they are never written and,
// when met, decoded and dropped.
const (
	imgHasDB = 1 << iota
	imgHasState
	imgHasLogs
	imgLegacyInputs
	imgHasKeys
	imgHasNet
	imgLegacyPast
)

// NetImage presence bits, with legacy bits as for images.
const (
	netHasSpec = 1 << iota
	netHasState
	netHasJoint
	netLegacyInputs
	netLegacyPast
)

func encodeImageBody(e *codec.Encoder, img *Image) error {
	e.Str(img.ID)
	e.Str(img.Model)
	e.Str(img.Src)
	e.Str(img.Mode)
	e.Uvarint(uint64(img.Steps))
	e.Bool(img.ErrorFree)
	e.Bool(img.OkEvery)
	e.Bool(img.LastAccept)
	var flags uint64
	if img.DB != nil {
		flags |= imgHasDB
	}
	if img.State != nil || img.state != nil {
		flags |= imgHasState
	}
	if img.tape != nil {
		flags |= imgHasLogs
	}
	if img.Keys != nil {
		flags |= imgHasKeys
	}
	if img.Net != nil {
		flags |= imgHasNet
	}
	e.Uvarint(flags)
	if img.DB != nil {
		e.Instance(img.DB)
	}
	if img.state != nil {
		img.state.Encode(e)
	} else if img.State != nil {
		e.Instance(img.State)
	}
	if img.tape != nil {
		img.tape.Encode(e)
	}
	if img.Keys != nil {
		encodeKeyTable(e, img.Keys)
	}
	if img.Net != nil {
		return encodeNetImage(e, img.Net)
	}
	return nil
}

func decodeImageBody(r *codec.Reader) (*Image, error) {
	img := &Image{}
	img.ID = r.Str()
	img.Model = r.Str()
	img.Src = r.Str()
	img.Mode = r.Str()
	img.Steps = r.Int()
	img.ErrorFree = r.Bool()
	img.OkEvery = r.Bool()
	img.LastAccept = r.Bool()
	flags := r.Uvarint()
	if flags&imgHasDB != 0 {
		img.DB = r.Instance()
	}
	if flags&imgHasState != 0 {
		img.State = r.Instance()
	}
	if flags&imgHasLogs != 0 {
		// The log is read straight into a tape of the image's machine, so
		// a restore adopts it without building or re-encoding instances.
		mach, err := img.machine()
		if err != nil {
			return nil, err
		}
		img.mach, img.tape = mach, mach.NewLogTape()
		if err := img.tape.Decode(r); err != nil {
			return nil, fmt.Errorf("image %s: %w", img.ID, err)
		}
	}
	if flags&imgLegacyInputs != 0 {
		r.Sequence()
	}
	if flags&imgLegacyPast != 0 {
		r.Instance()
	}
	if flags&imgHasKeys != 0 {
		img.Keys = decodeKeyTable(r)
	}
	if flags&imgHasNet != 0 {
		net, err := decodeNetImage(r)
		if err != nil {
			return nil, err
		}
		img.Net = net
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return img, nil
}

func encodeKeyTable(e *codec.Encoder, keys keyList) {
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k.key)
		e.Uvarint(uint64(k.seq))
	}
}

// decodeKeyTable reads a key table. The encoder writes it in key order, so
// it loads as it comes; a table out of order is sorted (see ordered).
func decodeKeyTable(r *codec.Reader) keyList {
	n := r.Int()
	keys := make(keyList, 0, min(n, 1024))
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Str()
		keys = append(keys, keyEntry{k, r.Int()})
	}
	return keys.ordered()
}

func encodeNetImage(e *codec.Encoder, net *NetImage) error {
	var flags uint64
	if net.Spec != nil {
		flags |= netHasSpec
	}
	if net.State != nil {
		flags |= netHasState
	}
	if net.Joint != nil || net.log != nil {
		flags |= netHasJoint
	}
	e.Uvarint(flags)
	if net.Spec != nil {
		// Specs are small, rare (once per network session), and carry no
		// repeated constants worth interning — an embedded JSON blob keeps
		// the schema out of the hot format.
		data, err := json.Marshal(net.Spec)
		if err != nil {
			return fmt.Errorf("net image: spec: %w", err)
		}
		e.Bytes(data)
	}
	if net.State != nil {
		e.Uvarint(uint64(net.State.Steps))
		var stFlags uint64
		if net.State.States != nil {
			stFlags |= 1
		}
		if net.State.PrevOut != nil {
			stFlags |= 2
		}
		e.Uvarint(stFlags)
		if net.State.States != nil {
			e.InstanceMap(net.State.States)
		}
		if net.State.PrevOut != nil {
			e.InstanceMap(net.State.PrevOut)
		}
	}
	if net.log != nil {
		net.log.encode(e)
	} else if net.Joint != nil {
		encodeJoint(e, net.Joint)
	}
	return nil
}

func decodeNetImage(r *codec.Reader) (*NetImage, error) {
	net := &NetImage{}
	flags := r.Uvarint()
	if flags&netHasSpec != 0 {
		spec := &compose.Spec{}
		if data := r.Bytes(); r.Err() == nil {
			if err := json.Unmarshal(data, spec); err != nil {
				return nil, fmt.Errorf("net image: spec: %w", err)
			}
			net.Spec = spec
		}
	}
	if flags&netHasState != 0 {
		st := &compose.NetState{Steps: r.Int()}
		stFlags := r.Uvarint()
		if stFlags&1 != 0 {
			st.States = r.InstanceMap()
		}
		if stFlags&2 != 0 {
			st.PrevOut = r.InstanceMap()
		}
		net.State = st
	}
	if flags&netHasJoint != 0 {
		net.Joint = decodeJoint(r)
	}
	if flags&netLegacyInputs != 0 {
		for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
			r.StepInputs()
		}
	}
	if flags&netLegacyPast != 0 {
		r.InstanceMap()
	}
	return net, r.Err()
}

// encodeJoint appends a network session's joint log — the canonical form
// JointLogDigest hashes, so its encoding must stay deterministic. A live
// session writes the same bytes from its tapes (netRun.encode).
func encodeJoint(e *codec.Encoder, joint []JointLogEntry) {
	e.Uvarint(uint64(len(joint)))
	for _, je := range joint {
		e.StepInputs(je.Logs)
		encodeWire(e, je.Wire)
	}
}

// encodeWire appends one joint step's wire traffic.
func encodeWire(e *codec.Encoder, wire []compose.WireDelta) {
	e.Uvarint(uint64(len(wire)))
	for _, wd := range wire {
		e.Str(wd.From)
		e.Str(wd.Output)
		e.Str(wd.To)
		e.Str(wd.Input)
		e.Uvarint(uint64(len(wd.Facts)))
		for _, t := range wd.Facts {
			e.Tuple(t)
		}
	}
}

func decodeJoint(r *codec.Reader) []JointLogEntry {
	n := r.Int()
	joint := make([]JointLogEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		je := JointLogEntry{Logs: r.StepInputs()}
		nw := r.Int()
		for j := 0; j < nw && r.Err() == nil; j++ {
			wd := compose.WireDelta{From: r.Str(), Output: r.Str(), To: r.Str(), Input: r.Str()}
			nf := r.Int()
			for k := 0; k < nf && r.Err() == nil; k++ {
				wd.Facts = append(wd.Facts, r.Tuple())
			}
			je.Wire = append(je.Wire, wd)
		}
		joint = append(joint, je)
	}
	return joint
}

func encodeImageRecord(e *codec.Encoder, img *Image) ([]byte, error) {
	e.Uvarint(kindImage)
	if err := encodeImageBody(e, img); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

func encodeSnapHeaderRecord(e *codec.Encoder, h snapHeader) []byte {
	e.Uvarint(kindSnapHeader)
	e.Uvarint(uint64(h.Version))
	e.Uvarint(uint64(h.Shard))
	return e.Finish()
}

// decodeSnapPayload parses one snapshot stream record in either format.
// first distinguishes the JSON header from JSON images (JSON records are
// positional); binary records carry their kind.
func decodeSnapPayload(dec *codec.Decoder, payload []byte, first bool) (*snapHeader, *Image, error) {
	if !codec.IsBinary(payload) {
		if first {
			h := &snapHeader{}
			if err := json.Unmarshal(payload, h); err != nil {
				return nil, nil, fmt.Errorf("snapshot header: %w", err)
			}
			return h, nil, nil
		}
		img := &Image{}
		if err := json.Unmarshal(payload, img); err != nil {
			return nil, nil, fmt.Errorf("snapshot session: %w", err)
		}
		if err := img.adoptLogs(); err != nil {
			return nil, nil, fmt.Errorf("snapshot session: %w", err)
		}
		return nil, img, nil
	}
	r, err := dec.Record(payload)
	if err != nil {
		return nil, nil, err
	}
	switch kind := r.Uvarint(); kind {
	case kindSnapHeader:
		h := &snapHeader{Version: r.Int(), Shard: r.Int()}
		if err := r.End(); err != nil {
			return nil, nil, err
		}
		return h, nil, nil
	case kindImage:
		img, err := decodeImageBody(r)
		if err != nil {
			return nil, nil, err
		}
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		return nil, img, nil
	default:
		return nil, nil, fmt.Errorf("snapshot record: unexpected kind %d", kind)
	}
}

// EncodeStateExport renders a ship image in its canonical binary form: a
// fresh intern table, so the bytes are a deterministic function of the
// value and safe to move between engines on their own.
func EncodeStateExport(se *StateExport) ([]byte, error) {
	e := codec.NewEncoder()
	e.Uvarint(kindStateExport)
	e.Bytes([]byte(se.Digest))
	if err := encodeImageBody(e, se.Image); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// DecodeStateExport parses a canonical binary ship image.
func DecodeStateExport(data []byte) (*StateExport, error) {
	dec := codec.NewDecoder()
	r, err := dec.Record(data)
	if err != nil {
		return nil, err
	}
	if kind := r.Uvarint(); kind != kindStateExport {
		return nil, fmt.Errorf("state export: unexpected kind %d", kind)
	}
	digest := string(r.Bytes())
	img, err := decodeImageBody(r)
	if err != nil {
		return nil, err
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return &StateExport{Image: img, Digest: digest}, nil
}
