package instance

import (
	"sort"
	"strings"

	"cind/internal/schema"
	"cind/internal/types"
)

// Database is an instance of a database schema: one Instance per relation.
// It also keeps the coded form of its relations resident for detection
// (see Coded); a Clone starts without it.
type Database struct {
	sch   *schema.Schema
	insts map[string]*Instance
	codes codeCache
}

// NewDatabase returns a database with an empty instance for every relation
// of the schema.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{sch: s, insts: make(map[string]*Instance, s.Len())}
	for _, r := range s.Relations() {
		db.insts[r.Name()] = NewInstance(r)
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.sch }

// Instance returns the instance of the named relation, panicking for
// unknown names (schemas are validated before data enters the system).
func (db *Database) Instance(rel string) *Instance {
	in, ok := db.insts[rel]
	if !ok {
		panic("instance: database has no relation " + rel)
	}
	return in
}

// Insert adds a tuple to the named relation.
func (db *Database) Insert(rel string, t Tuple) bool {
	return db.Instance(rel).Insert(t)
}

// Delete removes a tuple from the named relation, preserving the relative
// order of the remaining tuples.
func (db *Database) Delete(rel string, t Tuple) bool {
	return db.Instance(rel).Delete(t)
}

// Size returns the total number of tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, in := range db.insts {
		n += in.Len()
	}
	return n
}

// MaxRelationSize returns the largest single-relation cardinality — the
// quantity the chase compares against the table cap T (Section 5.2).
func (db *Database) MaxRelationSize() int {
	max := 0
	for _, in := range db.insts {
		if in.Len() > max {
			max = in.Len()
		}
	}
	return max
}

// IsEmpty reports whether every relation is empty. The consistency problem
// asks for a NONempty satisfying instance, so emptiness matters.
func (db *Database) IsEmpty() bool { return db.Size() == 0 }

// IsGround reports whether no tuple anywhere holds a chase variable.
func (db *Database) IsGround() bool {
	for _, in := range db.insts {
		if !in.IsGround() {
			return false
		}
	}
	return true
}

// SubstituteVar replaces the variable with id by val everywhere in the
// database — the global effect of the FD(φ) chase operation equating a
// variable with another value. Reports whether anything changed.
func (db *Database) SubstituteVar(id int64, val types.Value) bool {
	changed := false
	for _, in := range db.insts {
		if in.substituteVar(id, val) {
			changed = true
		}
	}
	return changed
}

// Vars returns the distinct variables occurring in the database, ordered by
// identity (deterministic iteration for valuations).
func (db *Database) Vars() []types.Value {
	seen := map[int64]types.Value{}
	for _, in := range db.insts {
		for _, t := range in.Tuples() {
			for _, v := range t {
				if v.IsVar() {
					seen[v.VarID()] = v
				}
			}
		}
	}
	ids := make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]types.Value, len(ids))
	for i, id := range ids {
		out[i] = seen[id]
	}
	return out
}

// Ground returns a ground copy of the database in which every remaining
// variable is replaced by a fresh constant of its own: distinct variables
// map to distinct constants outside the avoid set. The varDomain callback
// supplies each variable's attribute domain; Ground reports false if some
// finite domain cannot supply a fresh value (in which case the copy is not
// usable).
//
// This is the valuation step at the end of a successful chase (Example 5.1:
// "by mapping vF1 = d and vH1 = e, we obtain a database instance of R that
// satisfies Σ").
func (db *Database) Ground(varDomain func(id int64) *schema.Domain, avoid map[string]bool) (*Database, bool) {
	cp := db.Clone()
	used := make(map[string]bool, len(avoid))
	for k := range avoid {
		used[k] = true
	}
	for _, v := range cp.Vars() {
		dom := varDomain(v.VarID())
		if dom == nil {
			dom = schema.Infinite("any")
		}
		c, ok := dom.Fresh(used)
		if !ok {
			return nil, false
		}
		used[c] = true
		cp.SubstituteVar(v.VarID(), types.C(c))
	}
	return cp, true
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	cp := &Database{sch: db.sch, insts: make(map[string]*Instance, len(db.insts))}
	for name, in := range db.insts {
		cp.insts[name] = in.Clone()
	}
	return cp
}

// String renders the nonempty instances in relation-name order.
func (db *Database) String() string {
	names := make([]string, 0, len(db.insts))
	for name := range db.insts {
		if db.insts[name].Len() > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = db.insts[n].String()
	}
	return strings.Join(parts, "\n")
}
