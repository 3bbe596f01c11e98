package relation

import (
	"encoding/binary"
	"hash/maphash"
)

// Digest is an order-independent 128-bit digest of an instance's facts:
// equal sets of facts have equal digests, however they were built, and two
// distinct sets share one with probability 2⁻¹²⁸ if the keyed hash behaves
// as a random function. It is keyed by seeds drawn once per process, so a
// digest means nothing outside the process that computed it and must never
// be stored or sent.
type Digest [2]uint64

// digestSeeds key the two lanes of every Digest this process computes.
var digestSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// Digest returns the instance's digest: in each lane, the sum mod 2⁶⁴ of a
// keyed hash of every fact, the fact encoded as its relation's name, the
// relation's arity and its constants, each name and constant preceded by
// its length. The sum makes the digest independent of iteration order; the
// lengths make the encoding of a fact injective, so no two facts share
// one. An empty relation contributes nothing, so an instance digests as the
// instance with its empty relations dropped. It needs no sort, no key
// strings and, for facts of a few hundred bytes, no allocation.
func (in Instance) Digest() Digest {
	var d Digest
	var stack [256]byte
	buf := stack[:0]
	for name, r := range in {
		if r.Len() == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf[:0], uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(r.arity))
		head := len(buf)
		for _, t := range r.small {
			buf = d.add(buf[:head], t)
		}
		for _, t := range r.tuples {
			buf = d.add(buf[:head], t)
		}
	}
	return d
}

// add appends t's constants to buf, which holds its relation's name and
// arity, adds the hash of the whole to each lane, and returns buf for the
// next fact.
func (d *Digest) add(buf []byte, t Tuple) []byte {
	for _, c := range t {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	d[0] += maphash.Bytes(digestSeeds[0], buf)
	d[1] += maphash.Bytes(digestSeeds[1], buf)
	return buf
}
