package instance

import (
	"slices"
	"sync"

	"cind/internal/types"
)

// CodedRelation is the interned form of one relation instance: every field
// of every tuple as a types.Interner symbol code, row-major (Codes holds
// Arity codes per tuple, in the order of Tuples). Detection hashes and
// compares projections over these codes instead of over strings.
//
// A CodedRelation handed out by Database.Coded is an immutable snapshot:
// a later refresh builds a new one rather than rewriting it, so a detection
// run may keep reading it after the code lock is released.
type CodedRelation struct {
	Tuples []Tuple
	Arity  int
	Codes  []uint64

	// The instance Version the codes were built at.
	nextSeq int64
	n       int
}

// codeSlack is the interner growth tolerated on top of twice the cached
// cells before a refresh starts a fresh interner. It keeps tiny databases,
// whose pattern constants can outnumber their cells, from resetting on
// every refresh.
const codeSlack = 1024

// codeCache keeps the coded form of each relation resident across
// detection runs. Entries are stamped with the instance Version they were
// built at and rebuilt lazily when the stamp no longer matches, so the
// instance mutators need no hooks. One interner spans every relation: codes
// stay comparable across relations, which the CIND anti-join relies on.
type codeCache struct {
	mu   sync.Mutex
	it   *types.Interner
	rels map[string]*CodedRelation
}

// Coded returns the current coded form of each named relation, refreshing
// only the relations whose instance changed since they were last coded,
// and the codes of consts (pattern constants) from the same interner.
// Concurrent readers of an unchanged database share one build; the caller
// must still keep writers out, as for any read of the instances.
//
// When a refresh finds the interner holding more than twice the cached
// cells (plus codeSlack), it starts a fresh interner and drops every
// cached relation, so insert/delete churn cannot grow the interner without
// bound.
func (db *Database) Coded(rels []string, consts []string) (map[string]*CodedRelation, []uint64) {
	c := &db.codes
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.it == nil {
		c.it = types.NewInterner()
		c.rels = map[string]*CodedRelation{}
	}
	var stale []string
	for _, rel := range rels {
		cr, ok := c.rels[rel]
		if ok {
			if seq, n := db.Instance(rel).Version(); cr.nextSeq == seq && cr.n == n {
				continue
			}
			delete(c.rels, rel)
		} else if slices.Contains(stale, rel) {
			continue
		}
		stale = append(stale, rel)
	}
	if len(stale) > 0 {
		cells := 0
		for _, cr := range c.rels {
			cells += len(cr.Codes)
		}
		for _, rel := range stale {
			in := db.Instance(rel)
			cells += in.Len() * in.Relation().Arity()
		}
		if c.it.Len() > 2*cells+codeSlack {
			c.it = types.NewInterner()
			clear(c.rels)
		}
	}
	coded := make(map[string]*CodedRelation, len(rels))
	for _, rel := range rels {
		cr, ok := c.rels[rel]
		if !ok {
			cr = newCodedRelation(db.Instance(rel), c.it)
			c.rels[rel] = cr
		}
		coded[rel] = cr
	}
	codes := make([]uint64, len(consts))
	for i, s := range consts {
		codes[i] = c.it.Const(s)
	}
	return coded, codes
}

func newCodedRelation(in *Instance, it *types.Interner) *CodedRelation {
	tuples := in.Tuples()
	arity := in.Relation().Arity()
	seq, n := in.Version()
	cr := &CodedRelation{Tuples: tuples, Arity: arity, Codes: make([]uint64, len(tuples)*arity), nextSeq: seq, n: n}
	// Column-wise with a last-value cache: real columns are repetitive, and
	// re-coding an identical string (usually the same backing array) is a
	// cheap string compare instead of an interner lookup.
	for j := 0; j < arity; j++ {
		var lastStr string
		var lastCode uint64
		seen := false
		for i, t := range tuples {
			v := t[j]
			var code uint64
			if v.IsConst() {
				if s := v.Str(); seen && s == lastStr {
					code = lastCode
				} else {
					code = it.Const(s)
					lastStr, lastCode, seen = s, code, true
				}
			} else {
				code = it.Code(v)
			}
			cr.Codes[i*arity+j] = code
		}
	}
	return cr
}
