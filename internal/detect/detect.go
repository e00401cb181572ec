// Package detect is the batched, interned, parallel violation-detection
// engine — the production hot path of the library's data-cleaning story
// (Examples 1.2 and 2.2 of the paper: catching the 10.5% interest-rate
// error at scale).
//
// The per-constraint reference implementations (cfd.CFD.Violations,
// core.CIND.Violations) evaluate each constraint independently: every CFD
// re-scans its relation per tableau row, and every projection is hashed
// through an allocating string key. This engine instead:
//
//  1. interns every constant into an integer symbol ID (types.Interner), so
//     projection keys are sequences of uint64 codes rather than freshly
//     built strings; the coded relations stay resident in the database
//     (instance.Database.Coded) and are rebuilt only for relations whose
//     Version changed, so repeated runs over unchanged data skip interning;
//  2. groups CFDs by (relation, X attribute list) and CINDs by
//     (RHS relation, Y attribute list), building each shared projection
//     index over the instance once and evaluating all tableau rows of all
//     constraints in the group against it;
//  3. fans the groups out over a bounded worker pool (default GOMAXPROCS)
//     and merges the per-constraint results deterministically, in input
//     order;
//  4. supports a Limit that stops pair enumeration early, so violation-heavy
//     (dirty) data cannot force materialising O(n²) pairs.
//
// The engine returns exactly the violations, in exactly the order, of the
// reference implementations run constraint by constraint — a property the
// package tests assert on the paper's bank example and on generated
// workloads. The reference implementations remain the semantic ground truth
// (they sit below this package in the import graph and double as the
// differential-testing oracle); callers wanting bulk detection should come
// through here, via violation.Detect or the cind facade.
package detect

import (
	"context"

	"cind/internal/cfd"
	"cind/internal/conc"
	core "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/pattern"
)

// Options tunes a detection run.
type Options struct {
	// Parallel is the number of worker goroutines evaluating detection
	// groups; 0 means GOMAXPROCS, 1 forces sequential evaluation. The
	// result is identical regardless.
	Parallel int
	// Limit, when positive, caps the number of violations reported: the
	// result is the first Limit violations of the unlimited run, and pair
	// enumeration stops early once the cap is unreachable. 0 means
	// unlimited.
	Limit int
}

func (o Options) workers(units int) int { return conc.Workers(o.Parallel, units) }

// Result collects the violations of one run, per constraint kind, in input
// constraint order.
type Result struct {
	CFD  []cfd.Violation
	CIND []core.Violation
}

// Total returns the number of violations found.
func (r *Result) Total() int { return len(r.CFD) + len(r.CIND) }

// Clean reports whether no violation was found.
func (r *Result) Clean() bool { return r.Total() == 0 }

// Run evaluates every constraint against the database through the batched
// engine. The result lists violations grouped by constraint in input order;
// within one constraint the order matches the reference per-constraint
// implementation.
func Run(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) *Result {
	res, _ := RunContext(context.Background(), db, cfds, cinds, opts)
	return res
}

// stopFunc compiles a context into a cheap polling predicate the hot loops
// can call: a nil-Done context (Background) costs a single nil check.
func stopFunc(ctx context.Context) func() bool { return conc.StopFunc(ctx) }

// plan fetches the database's resident coded form of every referenced
// relation — re-coding only relations that changed since the last run —
// together with the codes of every pattern constant, and builds the
// detection groups. Workers only read the codes, so evaluation needs no
// locks. Shared by the batch and streaming entry points.
func plan(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) (map[string]*codedRel, []*cfdGroup, []*cindGroup) {
	var rels, consts []string
	addConsts := func(tp pattern.Tuple) {
		for _, s := range tp {
			if s.IsConst() {
				consts = append(consts, s.Const())
			}
		}
	}
	for _, c := range cfds {
		rels = append(rels, c.Rel)
		for _, r := range c.Rows {
			addConsts(r.LHS)
			addConsts(r.RHS)
		}
	}
	for _, c := range cinds {
		rels = append(rels, c.LHSRel, c.RHSRel)
		for _, r := range c.Rows {
			addConsts(r.LHS)
			addConsts(r.RHS)
		}
	}
	coded, codes := db.Coded(rels, consts)
	byConst := make(map[string]uint64, len(consts))
	for i, s := range consts {
		byConst[s] = codes[i]
	}
	intern := func(s string) uint64 { return byConst[s] }
	return coded, planCFDs(db, cfds, intern), planCINDs(db, cinds, intern)
}

// RunContext is Run with cooperative cancellation: the planning phase and
// every evaluation unit poll ctx, so a cancelled detection run stops the
// worker pool promptly — mid pair enumeration, mid index build, mid
// anti-join scan — instead of materialising the full report first. On
// cancellation the partial result is discarded and ctx's error returned.
func RunContext(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := stopFunc(ctx)
	coded, cfdGroups, cindGroups := plan(db, cfds, cinds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Each group writes only its own members' slots, so the fan-out is
	// race-free by construction and the merge is deterministic.
	cfdOut := make([][]cfd.Violation, len(cfds))
	cindOut := make([][]core.Violation, len(cinds))
	units := make([]func(), 0, len(cfdGroups)+len(cindGroups))
	for _, g := range cfdGroups {
		g := g
		units = append(units, func() { g.eval(coded, cfdOut, opts.Limit, stop) })
	}
	for _, g := range cindGroups {
		g := g
		units = append(units, func() { g.eval(coded, cindOut, opts.Limit, stop) })
	}

	conc.ForEachIdx(opts.workers(len(units)), len(units), func(i int) {
		if stop() {
			return
		}
		units[i]()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{}
	for _, vs := range cfdOut {
		res.CFD = append(res.CFD, vs...)
		if opts.Limit > 0 && len(res.CFD) >= opts.Limit {
			res.CFD = res.CFD[:opts.Limit]
			return res, nil
		}
	}
	budget := -1
	if opts.Limit > 0 {
		budget = opts.Limit - len(res.CFD)
	}
	for _, vs := range cindOut {
		res.CIND = append(res.CIND, vs...)
		if budget >= 0 && len(res.CIND) >= budget {
			res.CIND = res.CIND[:budget]
			return res, nil
		}
	}
	return res, nil
}

// CFDViolations runs a single CFD through the engine — the batched
// counterpart of the reference c.Violations(db).
func CFDViolations(db *instance.Database, c *cfd.CFD) []cfd.Violation {
	return Run(db, []*cfd.CFD{c}, nil, Options{Parallel: 1}).CFD
}

// CINDViolations runs a single CIND through the engine — the batched
// counterpart of the reference c.Violations(db).
func CINDViolations(db *instance.Database, c *core.CIND) []core.Violation {
	return Run(db, nil, []*core.CIND{c}, Options{Parallel: 1}).CIND
}
