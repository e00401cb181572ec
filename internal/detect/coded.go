package detect

import (
	"slices"

	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/types"
)

// codedRel is a relation instance with every field interned to a uint64
// symbol code (row-major). Batch runs read the database's resident coded
// relations (instance.Database.Coded), shared read-only by all evaluation
// units, so projection hashing and pattern matches are pure integer work in
// the hot loops; the incremental session grows private ones through
// appendTuple.
type codedRel = instance.CodedRelation

// appendTuple codes one tuple and appends it as a new row, returning the
// row id. The incremental session grows its resident coded relations through
// this path: rows are append-only (deletions tombstone elsewhere), so row
// ids — and the code sequences behind keyGroups representatives — stay
// valid for the lifetime of the session.
func appendTuple(cr *codedRel, t instance.Tuple, it *types.Interner) int32 {
	row := int32(len(cr.Tuples))
	cr.Tuples = append(cr.Tuples, t)
	for _, v := range t {
		cr.Codes = append(cr.Codes, it.Code(v))
	}
	return row
}

// projHash mixes the projected codes of one tuple into a 64-bit hash.
func projHash(cr *codedRel, row int, cols []int) uint64 {
	base := row * cr.Arity
	h := uint64(0x9E3779B97F4A7C15)
	for _, c := range cols {
		h ^= cr.Codes[base+c]
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return h
}

// projEq reports whether two projections hold identical code sequences.
// The column lists must have equal length (CIND validation guarantees
// |X| = |Y|; CFD groups share one X list).
func projEq(a *codedRel, ra int, ca []int, b *codedRel, rb int, cb []int) bool {
	ba, bb := ra*a.Arity, rb*b.Arity
	for i := range ca {
		if a.Codes[ba+ca[i]] != b.Codes[bb+cb[i]] {
			return false
		}
	}
	return true
}

// keyGroups assigns dense ordinals to distinct projections, in first-seen
// order, without materialising key strings: lookups go through a
// hash-of-codes map and collisions (different projections, same 64-bit
// hash) are resolved by comparing code sequences against each group's
// recorded representative. Representatives may live in different coded
// relations — a CIND compares LHS X projections against RHS Y projections.
//
// Every group of a projIndex shares one (relation, column list) source, and
// a CIND's slots draw on one source per distinct LHS projection plus the
// RHS one, so sources are stored once: a group records only its
// representative row and, once a second source appears, a source index.
type keyGroups struct {
	byHash map[uint64]int32   // hash -> first group with that hash
	over   map[uint64][]int32 // colliding further groups, lazily allocated
	srcs   []keySrc           // distinct representative sources
	rows   []int32            // group -> representative tuple index
	srcOf  []int32            // group -> index into srcs; nil while len(srcs) <= 1
}

// keySrc is a (coded relation, column list) that representatives project.
type keySrc struct {
	cr   *codedRel
	cols []int
}

func newKeyGroups(sizeHint int) keyGroups {
	return keyGroups{byHash: make(map[uint64]int32, sizeHint)}
}

func (kg *keyGroups) size() int { return len(kg.rows) }

// eq reports whether the projection equals group g's representative.
func (kg *keyGroups) eq(cr *codedRel, row int, cols []int, g int32) bool {
	src := &kg.srcs[0]
	if kg.srcOf != nil {
		src = &kg.srcs[kg.srcOf[g]]
	}
	return projEq(cr, row, cols, src.cr, int(kg.rows[g]), src.cols)
}

// find returns the ordinal of the group holding the projection, or -1.
func (kg *keyGroups) find(cr *codedRel, row int, cols []int) int32 {
	h := projHash(cr, row, cols)
	gi, ok := kg.byHash[h]
	if !ok {
		return -1
	}
	if kg.eq(cr, row, cols, gi) {
		return gi
	}
	for _, g := range kg.over[h] {
		if kg.eq(cr, row, cols, g) {
			return g
		}
	}
	return -1
}

// findOrAdd is find, adding a new group with this projection as
// representative when absent.
func (kg *keyGroups) findOrAdd(cr *codedRel, row int, cols []int) int32 {
	h := projHash(cr, row, cols)
	gi, ok := kg.byHash[h]
	if ok {
		if kg.eq(cr, row, cols, gi) {
			return gi
		}
		for _, g := range kg.over[h] {
			if kg.eq(cr, row, cols, g) {
				return g
			}
		}
	}
	ng := int32(len(kg.rows))
	kg.rows = append(kg.rows, int32(row))
	if si := kg.source(cr, cols); kg.srcOf != nil {
		kg.srcOf = append(kg.srcOf, si)
	}
	if !ok {
		kg.byHash[h] = ng
	} else {
		if kg.over == nil {
			kg.over = map[uint64][]int32{}
		}
		kg.over[h] = append(kg.over[h], ng)
	}
	return ng
}

// source returns the index of (cr, cols) in srcs, registering it when new.
// Called for a group just appended to rows: when the second source
// appears, srcOf is materialised for every earlier group (all of source
// 0), leaving the new group's entry for the caller to append.
func (kg *keyGroups) source(cr *codedRel, cols []int) int32 {
	for i := len(kg.srcs) - 1; i >= 0; i-- {
		if s := &kg.srcs[i]; s.cr == cr && slices.Equal(s.cols, cols) {
			return int32(i)
		}
	}
	kg.srcs = append(kg.srcs, keySrc{cr: cr, cols: cols})
	if len(kg.srcs) == 2 {
		kg.srcOf = make([]int32, len(kg.rows)-1, cap(kg.rows))
	}
	return int32(len(kg.srcs) - 1)
}

// projIndex groups every tuple of a coded relation by its projection on a
// fixed column list. Groups are numbered in first-seen (insertion) order —
// the order the per-constraint reference implementations report in — and
// the member tuple indices of group g are ix.group(g), also in insertion
// order. One index serves every constraint in a detection group, which is
// the batching win: k constraints sharing a projection cost one scan, not k.
type projIndex struct {
	cols   []int
	kg     keyGroups
	offs   []int32 // group -> start offset into tupIdx
	tupIdx []int32 // tuple indices, concatenated per group
}

// buildProjIndex returns nil when stop fires mid-build — the index pass is
// the dominant cost on clean data, so cancellation must be able to
// interrupt it, not just the pair enumeration that follows.
func buildProjIndex(cr *codedRel, cols []int, stop func() bool) *projIndex {
	n := len(cr.Tuples)
	ix := &projIndex{cols: cols, kg: newKeyGroups(n)}
	tupGi := make([]int32, n)
	var counts []int32
	for i := 0; i < n; i++ {
		if i&8191 == 0 && stop() {
			return nil
		}
		gi := ix.kg.findOrAdd(cr, i, cols)
		if int(gi) == len(counts) {
			counts = append(counts, 0)
		}
		tupGi[i] = gi
		counts[gi]++
	}
	ng := len(counts)
	ix.offs = make([]int32, ng+1)
	for g := 0; g < ng; g++ {
		ix.offs[g+1] = ix.offs[g] + counts[g]
	}
	ix.tupIdx = make([]int32, n)
	next := append([]int32(nil), ix.offs[:ng]...)
	for i := 0; i < n; i++ {
		gi := tupGi[i]
		ix.tupIdx[next[gi]] = int32(i)
		next[gi]++
	}
	return ix
}

func (ix *projIndex) size() int { return ix.kg.size() }

// rep returns the representative (first) tuple index of group g.
func (ix *projIndex) rep(g int) int32 { return ix.kg.rows[g] }

func (ix *projIndex) group(g int32) []int32 { return ix.tupIdx[ix.offs[g]:ix.offs[g+1]] }

// patSym is one compiled pattern symbol: the wildcard, or an interned
// constant code. A constant symbol matches exactly the values with the same
// code (chase variables live in a disjoint code namespace, so v ≭ a holds
// for free).
type patSym struct {
	wild bool
	code uint64
}

func compilePattern(tp pattern.Tuple, intern func(string) uint64) []patSym {
	out := make([]patSym, len(tp))
	for i, s := range tp {
		if s.IsConst() {
			out[i] = patSym{code: intern(s.Const())}
		} else {
			out[i].wild = true
		}
	}
	return out
}

// matchCoded reports whether tuple row of cr, projected to cols, matches
// the compiled pattern.
func matchCoded(cr *codedRel, row int, cols []int, pat []patSym) bool {
	base := row * cr.Arity
	for i, p := range pat {
		if !p.wild && cr.Codes[base+cols[i]] != p.code {
			return false
		}
	}
	return true
}
