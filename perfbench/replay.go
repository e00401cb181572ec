package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	cind "cind"

	"cind/internal/consistency"
	"cind/internal/detect"
	"cind/internal/implication"
	"cind/internal/instance"
	"cind/internal/shard"
	"cind/internal/stream"
	"cind/internal/wal"
)

// replayReps is how many times each replayed call runs; its spans'
// median is the reported figure.
const replayReps = 5

// layerResult is what the replays report.
type layerResult struct {
	metrics []named
	checks  int // replay outputs checked against the served answers
	failed  int
	// The layer work one served op does, for the self-time metrics.
	streamWork  float64 // ms: detect.Each drained + NDJSON encode, one scan stream
	deltaWorkUs float64 // µs: session apply + WAL append, one delta batch
	routerWork  float64 // ms: slowest shard + merge + NDJSON re-encode, one routed stream
}

func (l *layerResult) add(name string, v float64, unit string) {
	l.metrics = append(l.metrics, named{name, metric{v, unit}})
}

// check counts one replay output check.
func (l *layerResult) check(ok bool, what string) {
	l.checks++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: replay check failed: %s\n", what)
	}
}

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, 0.5)
}

// countingWriter counts bytes and discards them; countingFlusher counts
// flushes. Together they stand in for a response writer.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

type countingFlusher struct{ n int }

func (f *countingFlusher) Flush() { f.n++ }

// replayLayers calls each layer's public functions in-process on the
// inputs the HTTP passes served, with a span around every call.
func replayLayers(tr *tracer, root int, o options) (*layerResult, error) {
	l := &layerResult{}
	ctx := context.Background()
	scan := scanInputs(o.seed, o.scale)

	// instance: CSV parse and load.
	id, end := tr.open("replay.instance", root)
	var db *cind.Database
	loads := tr.time("instance.load_csv", id, replayReps, func() {
		var err error
		db, _, err = scan.load()
		if err != nil {
			panic(err) // the same inputs loaded without error while preparing the fixture
		}
	})
	end()
	set, err := cind.ParseConstraints(scan.spec)
	if err != nil {
		return nil, err
	}
	l.add("instance.load_csv_ms", medianMs(loads), "ms")
	l.add("instance.tuples", float64(db.Size()), "count")

	// detect: the batch engine, whole and per constraint kind, and the
	// streaming engine to its first violation and to completion.
	cfds, cinds := set.CFDs(), set.CINDs()
	id, end = tr.open("replay.detect", root)
	var full *detect.Result
	runs := tr.time("detect.run", id, replayReps, func() { full = detect.Run(db, cfds, cinds, detect.Options{}) })
	cfdRuns := tr.time("detect.cfd", id, replayReps, func() { detect.Run(db, cfds, nil, detect.Options{}) })
	cindRuns := tr.time("detect.cind", id, replayReps, func() { detect.Run(db, nil, cinds, detect.Options{}) })
	firsts := tr.time("detect.first", id, replayReps, func() {
		_ = detect.Each(ctx, db, cfds, cinds, detect.Options{}, func(detect.Violation) bool { return false })
	})
	eachs := tr.time("detect.each", id, replayReps, func() {
		_ = detect.Each(ctx, db, cfds, cinds, detect.Options{}, func(detect.Violation) bool { return true })
	})
	end()
	l.add("detect.run_ms", medianMs(runs), "ms")
	l.add("detect.cfd_ms", medianMs(cfdRuns), "ms")
	l.add("detect.cind_ms", medianMs(cindRuns), "ms")
	l.add("detect.ns_per_tuple", medianMs(runs)*1e6/float64(db.Size()), "ns")
	l.add("detect.cfd_violations", float64(len(full.CFD)), "count")
	l.add("detect.cind_violations", float64(len(full.CIND)), "count")
	l.add("detect.first_ms", medianMs(firsts), "ms")

	// stream: encode the full report as NDJSON and binary, decode binary.
	vs := resultViolations(full)
	nv := float64(len(vs))
	id, end = tr.open("replay.stream", root)
	var ndjson countingWriter
	var flushes countingFlusher
	nd := tr.time("stream.ndjson", id, replayReps, func() {
		ndjson, flushes = countingWriter{}, countingFlusher{}
		_ = encodeAll(&ndjson, &flushes, stream.NDJSON, vs) // a counting writer never fails
	})
	var bin bytes.Buffer
	bins := tr.time("stream.binary", id, replayReps, func() {
		bin.Reset()
		_ = encodeAll(&bin, nil, stream.Binary, vs) // a bytes.Buffer never fails
	})
	decoded := 0
	decs := tr.time("stream.decode_binary", id, replayReps, func() {
		all, err := stream.DecodeAll(bytes.NewReader(bin.Bytes()), stream.Binary)
		if err != nil {
			panic(err) // encoded just above by the same package
		}
		decoded = len(all)
	})
	end()
	l.check(decoded == len(vs), "binary stream decodes to the encoded violations")
	l.add("stream.ndjson_ns_per_violation", medianMs(nd)*1e6/nv, "ns")
	l.add("stream.ndjson_bytes_per_violation", float64(ndjson.n)/nv, "B")
	l.add("stream.flushes_per_stream", float64(flushes.n), "count")
	l.add("stream.binary_ns_per_violation", medianMs(bins)*1e6/nv, "ns")
	l.add("stream.binary_bytes_per_violation", float64(bin.Len())/nv, "B")
	l.add("stream.decode_binary_ns_per_violation", medianMs(decs)*1e6/nv, "ns")
	l.streamWork = medianMs(eachs) + medianMs(nd)

	if err := replayShards(ctx, tr, root, l, scan, set, medianMs(nd), len(vs)); err != nil {
		return nil, err
	}
	if err := replayIngest(tr, root, l, o); err != nil {
		return nil, err
	}
	if err := replayReason(ctx, tr, root, l, o); err != nil {
		return nil, err
	}
	return l, nil
}

// replayShards splits the scan dataset over two shards as the router does,
// serves each shard's stream as its cindserve would, and merges them.
func replayShards(ctx context.Context, tr *tracer, root int, l *layerResult, scan *inputs, set *cind.ConstraintSet, reencodeMs float64, want int) error {
	const shards = 2
	plan, err := shard.NewPlan(set, shards)
	if err != nil {
		return err
	}
	id, end := tr.open("replay.shard", root)
	defer end()
	var (
		order *shard.Order
		parts []*cind.Database
	)
	places := tr.time("shard.place", id, replayReps, func() {
		order = shard.NewOrder(plan)
		parts = make([]*cind.Database, shards)
		for i := range parts {
			parts[i] = cind.NewDatabase(set.Schema())
		}
		for _, t := range scan.tables {
			pl := plan.Placement(t.rel)
			for _, row := range t.rows {
				tup := instance.Consts(row...)
				order.Insert(t.rel, tup)
				if pl.Partitioned {
					parts[plan.ShardOf(t.rel, tup)].Insert(t.rel, tup)
					continue
				}
				for _, p := range parts {
					p.Insert(t.rel, tup)
				}
			}
		}
	})
	l.add("shard.place_ms", medianMs(places), "ms")
	maxPart, total := 0, 0
	for _, p := range parts {
		maxPart = max(maxPart, p.Size())
		total += p.Size()
	}
	l.add("shard.tuple_imbalance", float64(maxPart)/(float64(total)/shards), "ratio")

	// A router creates each shard's dataset with parallel=1 and an empty
	// delta batch, so a shard answers every scatter from its incremental
	// session: one stream is the maintained report, encoded as binary.
	bodies := make([][]byte, shards)
	slowest := 0.0
	for i, p := range parts {
		chk, err := cind.NewChecker(p, set, cind.WithParallelism(1))
		if err != nil {
			return err
		}
		if _, err := chk.Apply(ctx); err != nil {
			return err
		}
		var buf bytes.Buffer
		d := tr.time(fmt.Sprintf("shard.%d.stream", i), id, replayReps, func() {
			buf.Reset()
			w := stream.NewWriter(&buf, nil, stream.Binary, stream.Options{})
			for v, err := range chk.Violations(ctx) {
				if err != nil {
					panic(err) // a background context is never cancelled
				}
				w.Send(v)
			}
			_ = w.Close() // a bytes.Buffer never fails
		})
		bodies[i] = buf.Bytes()
		slowest = max(slowest, medianMs(d))
	}
	l.add("shard.detect_max_ms", slowest, "ms")

	var merged int64
	merges := tr.time("shard.merge", id, replayReps, func() {
		sources := make([]shard.Source, shards)
		for i, b := range bodies {
			sources[i] = stream.NewDecoder(bytes.NewReader(b), stream.Binary)
		}
		merged, err = shard.Merge(sources,
			func(si int, v *stream.Violation) (detect.MergeKey, bool, error) {
				if !plan.Keep(si, v.Constraint) {
					return detect.MergeKey{}, false, nil
				}
				k, err := order.Key(v)
				return k, err == nil, err
			},
			func(*stream.Violation) bool { return true })
	})
	if err != nil {
		return fmt.Errorf("replay shard merge: %w", err)
	}
	l.check(merged == int64(want), fmt.Sprintf("merge of the shard streams yields %d violations, want %d", merged, want))
	l.add("shard.merge_ms", medianMs(merges), "ms")
	l.routerWork = slowest + medianMs(merges) + reencodeMs
	return nil
}

// replayIngest seeds a session on the ingest instance, applies the same
// script the HTTP pass sent, and appends each batch to a WAL with
// fsync=always on the disk the server's data dir uses.
func replayIngest(tr *tracer, root int, l *layerResult, o options) error {
	in, sc := ingestInputs(o.seed, o.scale)
	db, set, err := in.load()
	if err != nil {
		return err
	}
	cfds, cinds := set.CFDs(), set.CINDs()
	id, end := tr.open("replay.session", root)
	var sess *detect.Session
	seeds := tr.time("session.seed", id, 3, func() { sess = detect.NewSession(db, cfds, cinds) })
	l.add("session.seed_ms", medianMs(seeds), "ms")

	batches := max(readEvery, int(ingestBatchesPerSecond*o.seconds/float64(len(workloads)+1)))
	script := make([][]deltaWire, batches)
	for i := range script {
		script[i] = sc.batch()
	}
	var applies, reports []time.Duration
	changes, deltas := 0, 0
	for i, b := range script {
		ds := toDeltas(b)
		var diff *detect.Diff
		applies = append(applies, tr.time("session.apply", id, 1, func() {
			diff, err = sess.Apply(ds...)
		})...)
		if err != nil {
			end()
			return fmt.Errorf("replay session apply: %w", err)
		}
		changes += diff.Added.Total() + diff.Removed.Total()
		deltas += len(ds)
		if (i+1)%readEvery == 0 {
			reports = append(reports, tr.time("session.report", id, 1, func() { sess.Report() })...)
		}
	}
	end()
	l.check(changes > 0, "the delta script changes the violation report")
	l.add("session.apply_us_p50", 1000*medianMs(applies), "us")
	l.add("session.diff_per_delta", float64(changes)/float64(deltas), "ratio")
	l.add("session.report_ms", medianMs(reports), "ms")

	id, end = tr.open("replay.wal", root)
	defer end()
	dir := filepath.Join(o.work, "replay-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var counters wal.Counters
	log, _, err := wal.OpenLog(filepath.Join(dir, "wal.log"), wal.Policy{Mode: wal.SyncAlways}, &counters)
	if err != nil {
		return err
	}
	var appends []time.Duration
	for _, b := range script {
		payload := batchBody(b)
		appends = append(appends, tr.time("wal.append", id, 1, func() { _, err = log.Append(payload) })...)
		if err != nil {
			log.Close()
			return fmt.Errorf("replay wal append: %w", err)
		}
	}
	size := log.Size()
	if err := log.Close(); err != nil {
		return err
	}
	l.add("wal.append_us_p50", 1000*medianMs(appends), "us")
	l.add("wal.bytes_per_delta", float64(size)/float64(deltas), "B")
	l.add("wal.fsyncs_per_batch", float64(counters.Fsyncs.Load())/float64(len(script)), "ratio")
	l.deltaWorkUs = 1000 * (medianMs(applies) + medianMs(appends))
	return nil
}

// replayReason decides the reason workload's goals, minimizes its
// redundant set and checks its consistency, as the three endpoints do.
func replayReason(ctx context.Context, tr *tracer, root int, l *layerResult, o options) error {
	in, consSeed, err := reasonInputs(o.seed)
	if err != nil {
		return err
	}
	set, err := cind.ParseConstraints(in.spec)
	if err != nil {
		return err
	}
	// Goals parse under the dataset's schema rendered as a preamble, as the
	// implication endpoint parses its body.
	goals, err := cind.ParseSpec(cind.MarshalSpec(&cind.Spec{Schema: set.Schema()}) + "\n" + reasonGoals)
	if err != nil {
		return err
	}
	sch, sigma := set.Schema(), set.CINDs()
	id, end := tr.open("replay.reason", root)
	defer end()
	var outs []implication.Outcome
	decides := tr.time("implication.decide", id, replayReps, func() {
		outs, err = implication.DecideAll(ctx, sch, sigma, goals.CINDs, implication.Options{})
	})
	if err != nil {
		return err
	}
	l.check(len(outs) == 2 && outs[0].Verdict == implication.Implied && outs[1].Verdict == implication.NotImplied,
		"implication verdicts are [implied not-implied]")
	var drops []implication.Drop
	mins := tr.time("implication.minimize", id, 3, func() {
		_, drops, err = implication.MinimalCoverCertified(ctx, sch, sigma, implication.Options{})
	})
	if err != nil {
		return err
	}
	l.check(len(drops) == reasonTotal-reasonKept, fmt.Sprintf("minimize drops %d constraints, want %d", len(drops), reasonTotal-reasonKept))
	var ans consistency.Answer
	checks := tr.time("consistency.check", id, replayReps, func() {
		ans, err = consistency.CheckingContext(ctx, sch, set.CFDs(), sigma,
			consistency.Options{K: consistencyK, Seed: consSeed})
	})
	if err != nil {
		return err
	}
	l.check(ans.Consistent, "the redundant bank set is consistent")
	l.add("implication.decide_ms", medianMs(decides), "ms")
	l.add("implication.minimize_ms", medianMs(mins), "ms")
	l.add("implication.dropped", float64(len(drops)), "count")
	l.add("consistency.check_ms", medianMs(checks), "ms")
	return nil
}
