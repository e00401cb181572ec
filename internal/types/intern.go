package types

import (
	"encoding/binary"
	"hash/maphash"
)

// Interner maps constant payloads to dense integer symbol IDs so that hot
// paths (bulk violation detection, projection hashing) can compare and hash
// values as machine words instead of rebuilding strings per tuple.
//
// Codes partition the uint64 space into two disjoint namespaces mirroring
// the value model: constants intern into odd codes (assigned densely in
// first-intern order), and chase variables map to even codes derived from
// their identity. Two values interned through the same Interner therefore
// have equal codes if and only if they are Eq — the property detection
// relies on to replace string projection keys with integer ones.
//
// An Interner is NOT safe for concurrent interning: callers must intern
// from one goroutine at a time. Looking up constants that are already
// interned only reads, so many goroutines may do that at once. The
// detection engine's interner lives in instance.Database and is written
// only under the database's code lock — when a changed relation is
// re-coded or a constraint's pattern constants are compiled — while
// detection workers read only the resulting codes. Codes are only
// meaningful relative to one Interner; they must never be persisted or
// compared across interners.
//
// The table is open-addressed and holds string headers, not copies: an
// interned constant shares the bytes of the value it came from, and each
// entry costs a 16-byte header plus one 8-byte slot. A database keeps its
// interner resident between detection runs, so this footprint is paid for
// as long as the database lives.
type Interner struct {
	strs  []string // code>>1 -> constant payload
	slots []uint64 // high 32 hash bits | index+1 into strs; 0 is empty
}

// internSeed hashes for every Interner. Codes follow first-intern order,
// never the hash, so they do not depend on the seed.
var internSeed = maphash.MakeSeed()

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{slots: make([]uint64, 16)}
}

const hashTag = uint64(0xFFFFFFFF) << 32

// Const returns the symbol ID of the constant payload s, assigning the next
// odd code on first sight. A hit never writes.
func (in *Interner) Const(s string) uint64 {
	h := maphash.String(internSeed, s)
	mask := uint64(len(in.slots) - 1)
	i := h & mask
	for ; in.slots[i] != 0; i = (i + 1) & mask {
		if e := in.slots[i]; e&hashTag == h&hashTag && in.strs[uint32(e)-1] == s {
			return uint64(uint32(e)-1)<<1 | 1
		}
	}
	if 4*(len(in.strs)+1) > 3*len(in.slots) {
		in.grow()
		mask = uint64(len(in.slots) - 1)
		i = h & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
	}
	in.strs = append(in.strs, s)
	in.slots[i] = h&hashTag | uint64(len(in.strs))
	return uint64(len(in.strs)-1)<<1 | 1
}

// grow doubles the slot table, keeping the load factor at most 3/4.
func (in *Interner) grow() {
	old := in.slots
	in.slots = make([]uint64, 2*len(old))
	mask := uint64(len(in.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := maphash.String(internSeed, in.strs[uint32(e)-1]) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = e
	}
}

// Code returns the symbol ID of a value: constants intern like Const;
// variables map to the even namespace by identity without touching the
// table.
func (in *Interner) Code(v Value) uint64 {
	if v.kind == Var {
		return uint64(v.id) << 1
	}
	return in.Const(v.str)
}

// Len returns the number of distinct constants interned so far.
func (in *Interner) Len() int { return len(in.strs) }

// AppendKey appends a set-membership encoding of v to dst: a tag byte
// keeping constants and variables in disjoint namespaces (so a constant
// "v1" never collides with variable v1), then a fixed-width identity for
// variables or a length-prefixed payload for constants. Length-prefixing
// makes concatenated encodings uniquely decodable even when constants
// contain control bytes (a terminator-based encoding would confuse
// ("a\x00x", "c") with ("a", "x\x00c")). It is the one shared encoder
// behind tuple keys (instance) and the reference projection keys (cfd,
// core); all three must agree on the format for the injectivity property
// to hold, which is why it lives here.
func AppendKey(dst []byte, v Value) []byte {
	if v.kind == Var {
		dst = append(dst, 1)
		id := uint64(v.id)
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(id>>(8*i)))
		}
		return dst
	}
	dst = append(dst, 2)
	dst = binary.AppendUvarint(dst, uint64(len(v.str)))
	return append(dst, v.str...)
}

// AppendTupleKey appends the AppendKey encoding of each value in order.
// Because each element is self-delimiting, the concatenation is injective
// on value sequences of any length.
func AppendTupleKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}

// TupleKey returns the injective encoding of a value sequence as a string,
// presized via KeyLen. This is the one tuple-identity encoder shared by
// instance set membership, the detection session's row lookup, and
// violation identity keys; they must agree on the format, which is why it
// lives here.
func TupleKey(vals []Value) string {
	n := 0
	for _, v := range vals {
		n += KeyLen(v)
	}
	return string(AppendTupleKey(make([]byte, 0, n), vals))
}

// KeyLen returns the exact number of bytes AppendKey writes for v, so
// callers can presize buffers without duplicating the encoding layout.
func KeyLen(v Value) int {
	if v.kind == Var {
		return 9 // tag + 8-byte identity
	}
	n := len(v.str)
	varint := 1
	for x := uint64(n); x >= 0x80; x >>= 7 {
		varint++
	}
	return 1 + varint + n
}
