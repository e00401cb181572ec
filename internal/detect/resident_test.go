package detect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cind/internal/bank"
	"cind/internal/instance"
	"cind/internal/types"
)

// The batch engine reads the coded relations the database keeps resident
// between runs (instance.Database.Coded). These tests pin that cache to the
// semantics of detection on a database that never had one: every mutation
// path must invalidate it, churn must not grow its interner without bound,
// and concurrent first runs must share one build safely.

// assertMatchesFreshClone checks Run and Each over db (whose codes may be
// cached from earlier runs) against the same entry points over a fresh
// Clone, which starts with no cache: Run violation for violation in order,
// sequential Each in its own order, and parallel Each as a multiset.
func assertMatchesFreshClone(t *testing.T, label string, db *instance.Database, w *streamWorkload, par int) {
	t.Helper()
	fresh := db.Clone()
	want := Run(fresh, w.cfds, w.cinds, Options{Parallel: par})
	if got := Run(db, w.cfds, w.cinds, Options{Parallel: par}); !resultsEqual(got, want) {
		t.Fatalf("%s: Run over the cached database diverges from a fresh clone\ngot  %v %v\nwant %v %v",
			label, got.CFD, got.CIND, want.CFD, want.CIND)
	}
	ctx := context.Background()
	if got, want := collectEach(t, ctx, db, w.cfds, w.cinds, Options{Parallel: 1}),
		collectEach(t, ctx, db.Clone(), w.cfds, w.cinds, Options{Parallel: 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sequential Each over the cached database diverges from a fresh clone\ngot  %v\nwant %v", label, got, want)
	}
	var all []Violation
	for _, v := range want.CFD {
		all = append(all, CFDViolation(v))
	}
	for _, v := range want.CIND {
		all = append(all, CINDViolation(v))
	}
	if got := collectEach(t, ctx, db, w.cfds, w.cinds, Options{Parallel: 3}); !reflect.DeepEqual(sortedStrings(got), sortedStrings(all)) {
		t.Fatalf("%s: parallel Each over the cached database is not the fresh Run's multiset", label)
	}
}

// TestResidentCodesFollowEveryMutation drives one database through seeded
// scripts of every instance mutation — Insert, Delete, delete-then-reinsert
// (the tuple moves to the end), Reset plus refill (repair's instance swap)
// and SubstituteVar (the chase's variable binding, which can merge tuples)
// — detecting after every step, so each step meets a warm cache.
func TestResidentCodesFollowEveryMutation(t *testing.T) {
	for _, w := range []*streamWorkload{bankStream(), genStream(1), genStream(7)} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", w.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := w.freshDB()
				rels := db.Schema().Relations()
				nextVar := int64(1)
				var vars []types.Value
				assertMatchesFreshClone(t, "initial", db, w, 1)
				for step := 0; step < 60; step++ {
					var op string
					switch r := rng.Intn(6); r {
					case 0, 1:
						rel, tup := w.randTuple(rng)
						if rng.Intn(3) == 0 {
							// A chase-style template tuple: one field holds a
							// variable that a later step binds.
							v := types.NewVar(nextVar, "v")
							nextVar++
							tup[rng.Intn(len(tup))] = v
							vars = append(vars, v)
						}
						op = fmt.Sprintf("insert %s%v", rel, tup)
						db.Insert(rel, tup)
					case 2, 3:
						in := db.Instance(rels[rng.Intn(len(rels))].Name())
						if in.Len() == 0 {
							continue
						}
						tup := in.Tuples()[rng.Intn(in.Len())]
						op = fmt.Sprintf("delete %s%v", in.Relation().Name(), tup)
						in.Delete(tup)
						if r == 3 {
							op = "delete+reinsert " + op[len("delete "):]
							in.Insert(tup)
						}
					case 4:
						// Repair's replaceInstance: empty the instance, then
						// insert a rebuilt tuple set (here a shuffled subset).
						in := db.Instance(rels[rng.Intn(len(rels))].Name())
						kept := append([]instance.Tuple(nil), in.Tuples()...)
						rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
						kept = kept[:len(kept)-len(kept)/3]
						op = fmt.Sprintf("reset+refill %s with %d of %d", in.Relation().Name(), len(kept), in.Len())
						in.Reset()
						for _, tup := range kept {
							in.Insert(tup)
						}
					case 5:
						if len(vars) == 0 {
							continue
						}
						k := rng.Intn(len(vars))
						v := vars[k]
						vars = append(vars[:k], vars[k+1:]...)
						val := types.C(fmt.Sprintf("bound%d", rng.Intn(3)))
						if len(vars) > 0 && rng.Intn(2) == 0 {
							val = vars[rng.Intn(len(vars))]
						}
						op = fmt.Sprintf("substitute %v := %v", v, val)
						db.SubstituteVar(v.VarID(), val)
					}
					assertMatchesFreshClone(t, fmt.Sprintf("step %d (%s)", step, op), db, w, 1+step%3)
				}
			})
		}
	}
}

// internedConstants reports how many constants the database's resident
// interner holds: constant codes are dense odd numbers in first-intern
// order, so interning a never-seen probe constant reveals the count.
func internedConstants(db *instance.Database, probe int) int {
	_, codes := db.Coded(nil, []string{fmt.Sprintf("\x00probe%d", probe)})
	return int(codes[0] >> 1)
}

// TestResidentInternerResetsUnderChurn replaces the checking relation with
// fresh, never-repeated values round after round. Without a bound the
// interner would keep every constant ever seen; the refresh must notice
// that it holds far more constants than the cached cells, start a fresh
// interner, and keep detecting correctly across the reset.
func TestResidentInternerResetsUnderChurn(t *testing.T) {
	w := bankStream()
	db := w.freshDB()
	chk := db.Instance("checking")
	const perRound = 1500
	cells := func() int {
		n := 0
		for _, r := range db.Schema().Relations() {
			n += db.Instance(r.Name()).Len() * r.Arity()
		}
		return n
	}
	resets, prev, peak := 0, 0, 0
	for round := 0; round < 12; round++ {
		for _, tup := range append([]instance.Tuple(nil), chk.Tuples()...) {
			chk.Delete(tup)
		}
		for i := 0; i < perRound; i++ {
			chk.Insert(instance.Consts(fmt.Sprintf("a%d-%d", round, i), fmt.Sprintf("c%d-%d", round, i),
				fmt.Sprintf("addr%d-%d", round, i), "555", []string{"NYC", "EDI"}[i%2]))
		}
		Run(db, w.cfds, w.cinds, Options{})
		n := internedConstants(db, round)
		if n < prev {
			resets++
		}
		prev = n
		peak = max(peak, n)
	}
	if resets == 0 {
		t.Fatalf("interner never reset under churn: it holds %d constants for %d cells", prev, cells())
	}
	// Between resets the interner holds at most twice the cells plus a
	// constant slack, plus the one round coded after the check.
	if bound := 3*cells() + 4096; peak > bound {
		t.Fatalf("interner peaked at %d constants, want <= %d (cells %d)", peak, bound, cells())
	}
	assertMatchesFreshClone(t, "after churn", db, w, 0)
}

// TestConcurrentFirstEachOnUncodedDatabase: two detection streams start at
// once on a database that was never coded. They race to build the resident
// codes; the code lock must make one build and both must stream the full,
// correct report. Run under -race (ci.sh does).
func TestConcurrentFirstEachOnUncodedDatabase(t *testing.T) {
	for _, par := range []int{1, 2} {
		db, cfds, cinds := denseDirtyBank(2000, 50)
		want := Run(db.Clone(), cfds, cinds, Options{})
		var all []Violation
		for _, v := range want.CFD {
			all = append(all, CFDViolation(v))
		}
		for _, v := range want.CIND {
			all = append(all, CINDViolation(v))
		}
		var wg sync.WaitGroup
		got := make([][]Violation, 2)
		errs := make([]error, 2)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = Each(context.Background(), db, cfds, cinds, Options{Parallel: par}, func(v Violation) bool {
					got[i] = append(got[i], v)
					return true
				})
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("parallel=%d stream %d: %v", par, i, errs[i])
			}
			if !reflect.DeepEqual(sortedStrings(got[i]), sortedStrings(all)) {
				t.Fatalf("parallel=%d stream %d: %d violations, want the %d of a fresh Run", par, i, len(got[i]), len(all))
			}
		}
	}
}

// TestResidentCodesSkipUnchangedRelations: an unchanged relation keeps its
// coded form across runs, a mutated one is re-coded, and a Clone starts
// without any.
func TestResidentCodesSkipUnchangedRelations(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	Run(db, bank.CFDs(sch), bank.CINDs(sch), Options{})
	snap := func(d *instance.Database) map[string]*codedRel {
		coded, _ := d.Coded([]string{"checking", "interest"}, nil)
		return coded
	}
	before := snap(db)
	db.Insert("checking", instance.Consts("99", "New", "Addr", "555", "NYC"))
	after := snap(db)
	if after["interest"] != before["interest"] {
		t.Fatal("unchanged relation interest was re-coded")
	}
	if after["checking"] == before["checking"] || len(after["checking"].Tuples) != len(before["checking"].Tuples)+1 {
		t.Fatal("mutated relation checking kept its stale codes")
	}
	if snap(db.Clone())["interest"] == after["interest"] {
		t.Fatal("a Clone must not share the original's coded relations")
	}
}
