package ipg

import (
	"encoding/binary"
	"math/bits"
)

// packer converts labels to and from the arena's records.  Each symbol
// takes bits bits, and a record is a run of little-endian 64-bit words,
// each holding per symbols from its least significant bit up (no symbol
// straddles two words), with the last word cut to the bytes its symbols
// need.  For 1, 2, 4 and 8 bits that is ceil(len*bits/8) bytes.
type packer struct {
	bits uint
	per  int // symbols per word: 64/bits
}

// newPacker returns the packer for labels over seed's alphabet: bits per
// symbol enough for its largest symbol, and at least one.
func newPacker(seed []byte) packer {
	var top byte
	for _, s := range seed {
		top = max(top, s)
	}
	b := max(1, bits.Len8(top))
	return packer{bits: uint(b), per: 64 / b}
}

// size returns the record bytes of a label of n symbols.
func (pk packer) size(n int) int {
	return n/pk.per*8 + (n%pk.per*int(pk.bits)+7)/8
}

// pack writes l's record into r and reports false when a symbol of l
// needs more bits than the packer has (r then holds no record).
func (pk packer) pack(r, l []byte) bool {
	if pk.bits == 1 {
		return packBits(r, l)
	}
	var seen byte
	for len(l) > 0 {
		k := min(len(l), pk.per)
		var w uint64
		for j, s := range l[:k] {
			seen |= s
			w |= uint64(s) << (uint(j) * pk.bits & 63)
		}
		r = pk.put(r, w, k)
		l = l[k:]
	}
	return seen>>pk.bits == 0
}

// put stores the word w of k symbols at the front of r and returns the
// rest of r.
func (pk packer) put(r []byte, w uint64, k int) []byte {
	nb := (k*int(pk.bits) + 7) / 8
	store(r[:nb], w)
	return r[nb:]
}

// unpack writes the symbols of record r into l.
func (pk packer) unpack(l, r []byte) {
	if pk.bits == 1 {
		unpackBits(l, r)
		return
	}
	mask := uint64(1)<<pk.bits - 1
	for len(l) > 0 {
		k := min(len(l), pk.per)
		nb := (k*int(pk.bits) + 7) / 8
		w := load(r[:nb])
		for j := range l[:k] {
			l[j] = byte(w >> (uint(j) * pk.bits & 63) & mask)
		}
		l, r = l[k:], r[nb:]
	}
}

// packBits is pack for one-bit symbols, a record byte per eight of
// them: the multiply gathers the low bit of each byte of a word into its
// top byte.  The alphabet check ORs every symbol together and looks once,
// at the end.
func packBits(r, l []byte) bool {
	var seen uint64
	for ; len(l) >= 8; l, r = l[8:], r[1:] {
		w := binary.LittleEndian.Uint64(l)
		seen |= w
		r[0] = byte(w * 0x0102040810204080 >> 56)
	}
	var c byte
	for j, s := range l {
		seen |= uint64(s)
		c |= s << j
	}
	if len(l) > 0 {
		r[0] = c
	}
	return seen&^0x0101010101010101 == 0
}

// unpackBits is unpack for one-bit symbols: the multiply copies a record
// byte into every byte of a word, the mask keeps bit j in byte j, and the
// add carries each kept bit to the top of its byte.
func unpackBits(l, r []byte) {
	for ; len(l) >= 8; l, r = l[8:], r[1:] {
		w := uint64(r[0]) * 0x0101010101010101 & 0x8040201008040201
		binary.LittleEndian.PutUint64(l, (w+0x7f7f7f7f7f7f7f7f)>>7&0x0101010101010101)
	}
	for j := range l {
		l[j] = r[0] >> j & 1
	}
}

// load returns the (at most 8) bytes of s as a little-endian word.
func load(s []byte) uint64 {
	if len(s) == 8 {
		return binary.LittleEndian.Uint64(s)
	}
	var w uint64
	for i, c := range s {
		w |= uint64(c) << (8 * i)
	}
	return w
}

// store writes the low len(s) (at most 8) bytes of w into s.
func store(s []byte, w uint64) {
	if len(s) == 8 {
		binary.LittleEndian.PutUint64(s, w)
		return
	}
	for i := range s {
		s[i] = byte(w >> (8 * i))
	}
}
