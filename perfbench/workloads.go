package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/stream"
)

// env is what every workload is built from.
type env struct {
	bin   string  // the cindserve binary under test
	work  string  // scratch directory for data dirs and trace files
	seed  int64   // the workload seed
	scale float64 // input size relative to the benchmark's (1 = full)
}

// sample is one closed-loop operation as the client timed it.
type sample struct {
	op    time.Duration // the workload's operation, request to last byte
	first time.Duration // request to first result record; 0 = none this op
	work  float64       // violations, deltas or requests the op delivered
	read  *streamStats  // ingest: the full stream read after this batch
	reqs  []request     // the HTTP requests the op made, in order
	err   error         // failed or incorrect; the op counts as failed
	span  timed         // when the loop started the op, and how long it took
}

// request is one HTTP request of an op, for the traced pass's spans.
type request struct {
	name       string
	start, end time.Time
}

// deployment is one set-up system under test, ready for closed-loop ops.
type deployment interface {
	op(i int) sample
	finish() error // the post-run correctness check
	procs() []*proc
	stop()
}

// fixture holds a workload's generated inputs and reference outputs; setup
// starts a fresh system from them, which is what setup_s times.
type fixture interface {
	setup() (deployment, error)
}

type workload struct {
	name    string
	prepare func(e *env) (fixture, error)
	// opsPerSecond, when positive, fixes a run's length in ops: seconds
	// times this many. The ingest script grows the instance with every
	// batch, so a time-bound run would hand a faster server more tuples to
	// read; a fixed length makes every run apply identical deltas.
	opsPerSecond float64
}

// ingestBatchesPerSecond sizes the ingest script so that a run takes about
// the requested seconds on a 2-core container.
const ingestBatchesPerSecond = 150

var workloads = []workload{
	{name: "scan", prepare: prepareScan},
	{name: "ingest", prepare: prepareIngest, opsPerSecond: ingestBatchesPerSecond},
	{name: "routed", prepare: prepareRouted},
	{name: "reason", prepare: prepareReason},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadDataset creates dataset name from in through c: constraints first,
// then every relation's CSV, in order.
func loadDataset(c *client, name string, in *inputs) error {
	if err := c.call("PUT", "/datasets/"+name+"/constraints", []byte(in.spec), nil); err != nil {
		return err
	}
	for _, t := range in.tables {
		if err := c.call("PUT", "/datasets/"+name+"?relation="+t.rel, csvBody(t), nil); err != nil {
			return err
		}
	}
	return nil
}

// encodeAll streams vs through the server's own stream writer in enc.
func encodeAll(out io.Writer, fl stream.Flusher, enc stream.Encoding, vs []detect.Violation) error {
	w := stream.NewWriter(out, fl, enc, stream.Options{})
	for _, v := range vs {
		w.Send(v)
	}
	return w.Close()
}

func encodeNDJSON(vs []detect.Violation) ([]byte, error) {
	var buf bytes.Buffer
	err := encodeAll(&buf, nil, stream.NDJSON, vs)
	return buf.Bytes(), err
}

func resultViolations(r *detect.Result) []detect.Violation {
	out := make([]detect.Violation, 0, r.Total())
	for _, v := range r.CFD {
		out = append(out, detect.CFDViolation(v))
	}
	for _, v := range r.CIND {
		out = append(out, detect.CINDViolation(v))
	}
	return out
}

// batchDigest is the digest of a batch detect.Run over db, encoded as the
// server encodes its streams.
func batchDigest(db *cind.Database, set *cind.ConstraintSet) (digest, error) {
	body, err := encodeNDJSON(resultViolations(detect.Run(db, set.CFDs(), set.CINDs(), detect.Options{})))
	if err != nil {
		return digest{}, err
	}
	return digestNDJSON(body)
}

// checkStream compares a stream with its reference: the count always, the
// exact order only where the server promises one.
func checkStream(st streamStats, ref digest, ordered bool) error {
	switch {
	case st.count != ref.count:
		return fmt.Errorf("stream carried %d violations, reference has %d", st.count, ref.count)
	case st.multiset != ref.multiset:
		return errors.New("stream violations differ from the reference")
	case ordered && st.ordered != ref.ordered:
		return errors.New("stream order differs from the reference")
	}
	return nil
}

// --- scan and routed ---

const scanDataset = "bank"

type scanFixture struct {
	e      *env
	in     *inputs
	ref    digest
	routed bool
}

func prepareScan(e *env) (fixture, error)   { return newScanFixture(e, false) }
func prepareRouted(e *env) (fixture, error) { return newScanFixture(e, true) }

// newScanFixture generates the dirty bank dataset and its reference
// stream: an in-process Checker.Detect over the same constraint text and
// CSV bodies the server receives.
func newScanFixture(e *env, routed bool) (*scanFixture, error) {
	in := scanInputs(e.seed, e.scale)
	db, set, err := in.load()
	if err != nil {
		return nil, err
	}
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return nil, err
	}
	rep, err := chk.Detect(context.Background())
	if err != nil {
		return nil, err
	}
	body, err := encodeNDJSON(rep.Violations())
	if err != nil {
		return nil, err
	}
	ref, err := digestNDJSON(body)
	if err != nil {
		return nil, err
	}
	return &scanFixture{e: e, in: in, ref: ref, routed: routed}, nil
}

type scanDeployment struct {
	f    *scanFixture
	ps   []*proc
	c    *client
	buf  []byte
	path string
}

func (f *scanFixture) setup() (deployment, error) {
	d := &scanDeployment{f: f, buf: make([]byte, 256<<10), path: "/datasets/" + scanDataset + "/violations"}
	if err := d.start(); err != nil {
		d.stop()
		return nil, err
	}
	if s := d.op(0); s.err != nil {
		d.stop()
		return nil, fmt.Errorf("cold stream: %w", s.err)
	}
	return d, nil
}

func (d *scanDeployment) start() error {
	if d.f.routed {
		var urls []string
		for i := 0; i < 2; i++ {
			p, err := startServer(d.f.e.bin, "-shard", strconv.Itoa(i))
			if err != nil {
				return err
			}
			d.ps = append(d.ps, p)
			urls = append(urls, p.url)
		}
		p, err := startServer(d.f.e.bin, "-route", urls[0]+","+urls[1])
		if err != nil {
			return err
		}
		d.ps = append(d.ps, p)
	} else {
		p, err := startServer(d.f.e.bin)
		if err != nil {
			return err
		}
		d.ps = append(d.ps, p)
	}
	d.c = newClient(d.ps[len(d.ps)-1].url)
	return loadDataset(d.c, scanDataset, d.f.in)
}

func (d *scanDeployment) op(int) sample {
	start := time.Now()
	st, err := d.c.stream(d.path, d.buf)
	if err == nil {
		err = checkStream(st, d.f.ref, d.f.routed)
	}
	return sample{op: st.total, first: st.first, work: float64(st.count), err: err,
		reqs: []request{{"GET violations", start, time.Now()}}}
}

func (d *scanDeployment) finish() error  { return nil }
func (d *scanDeployment) procs() []*proc { return d.ps }

func (d *scanDeployment) stop() {
	if d.c != nil {
		d.c.close()
	}
	for _, p := range d.ps {
		p.stop()
	}
}

// --- ingest ---

const ingestDataset = "ledger"

type ingestFixture struct {
	e       *env
	in      *inputs
	set     *cind.ConstraintSet
	replica *cind.Database // the client's copy, kept in step with every acked batch
	script  *script
	seedRef digest
	runs    int
}

func prepareIngest(e *env) (fixture, error) {
	in, sc := ingestInputs(e.seed, e.scale)
	db, set, err := in.load()
	if err != nil {
		return nil, err
	}
	ref, err := batchDigest(db, set)
	if err != nil {
		return nil, err
	}
	return &ingestFixture{e: e, in: in, set: set, replica: db, script: sc, seedRef: ref}, nil
}

type ingestDeployment struct {
	f        *ingestFixture
	p        *proc
	c        *client
	dir      string
	buf      []byte
	expected int64 // violations the server's report must hold now
}

func (f *ingestFixture) setup() (deployment, error) {
	f.runs++
	d := &ingestDeployment{f: f, buf: make([]byte, 256<<10), expected: f.seedRef.count,
		dir: filepath.Join(f.e.work, fmt.Sprintf("ingest-data-%d", f.runs))}
	if err := d.start(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *ingestDeployment) start() error {
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	p, err := startServer(d.f.e.bin, "-data", d.dir, "-fsync", "always")
	if err != nil {
		return err
	}
	d.p = p
	d.c = newClient(p.url)
	if err := loadDataset(d.c, ingestDataset, d.f.in); err != nil {
		return err
	}
	// The empty batch seeds the incremental session: from here on reads
	// come from its snapshot and writes are maintained, not re-detected.
	return d.c.call("POST", "/datasets/"+ingestDataset+"/deltas", []byte("[]"), nil)
}

// diffAnswer is the part of a deltas answer the client checks.
type diffAnswer struct {
	Applied int               `json:"applied"`
	Durable *bool             `json:"durable"`
	Added   []json.RawMessage `json:"added"`
	Removed []json.RawMessage `json:"removed"`
}

func (d *ingestDeployment) op(i int) sample {
	b := d.f.script.batch()
	body := batchBody(b)
	var ans diffAnswer
	start := time.Now()
	err := d.c.call("POST", "/datasets/"+ingestDataset+"/deltas", body, &ans)
	end := time.Now()
	s := sample{op: end.Sub(start), work: float64(len(b)), reqs: []request{{"POST deltas", start, end}}}
	applyBatch(d.f.replica, b)
	switch {
	case err != nil:
		s.err = err
	case ans.Applied != len(b):
		s.err = fmt.Errorf("server applied %d of %d deltas", ans.Applied, len(b))
	case ans.Durable == nil || !*ans.Durable:
		s.err = errors.New("batch acknowledged without being durable")
	}
	d.expected += int64(len(ans.Added) - len(ans.Removed))
	if (i+1)%readEvery == 0 {
		rstart := time.Now()
		st, err := d.c.stream("/datasets/"+ingestDataset+"/violations", d.buf)
		s.reqs = append(s.reqs, request{"GET violations", rstart, time.Now()})
		if err == nil && st.count != d.expected {
			err = fmt.Errorf("read carried %d violations, the acknowledged diffs add up to %d", st.count, d.expected)
		}
		s.read, s.first = &st, st.first
		if s.err == nil {
			s.err = err
		}
	}
	return s
}

// finish checks the served report against a batch detect.Run over the
// client's replay of every acknowledged batch.
func (d *ingestDeployment) finish() error {
	ref, err := batchDigest(d.f.replica, d.f.set)
	if err != nil {
		return err
	}
	st, err := d.c.stream("/datasets/"+ingestDataset+"/violations", d.buf)
	if err != nil {
		return err
	}
	return checkStream(st, ref, true)
}

func (d *ingestDeployment) procs() []*proc { return []*proc{d.p} }

func (d *ingestDeployment) stop() {
	if d.c != nil {
		d.c.close()
	}
	d.p.stop()
	_ = os.RemoveAll(d.dir) // scratch data; a leftover is removed with the work dir
}

// --- reason ---

type reasonFixture struct {
	e       *env
	in      *inputs
	consURL string
}

func prepareReason(e *env) (fixture, error) {
	in, consSeed, err := reasonInputs(e.seed)
	if err != nil {
		return nil, err
	}
	return &reasonFixture{e: e, in: in,
		consURL: fmt.Sprintf("/datasets/%s/consistency?method=chase&k=%d&seed=%d", reasonDataset, consistencyK, consSeed)}, nil
}

type reasonDeployment struct {
	f *reasonFixture
	p *proc
	c *client
}

func (f *reasonFixture) setup() (deployment, error) {
	d := &reasonDeployment{f: f}
	p, err := startServer(f.e.bin)
	if err != nil {
		return nil, err
	}
	d.p, d.c = p, newClient(p.url)
	if err := loadDataset(d.c, reasonDataset, f.in); err != nil {
		d.stop()
		return nil, err
	}
	if s := d.op(0); s.err != nil {
		d.stop()
		return nil, fmt.Errorf("cold round: %w", s.err)
	}
	return d, nil
}

// op is one reasoning round: implication, consistency, minimize, each
// checked against its fixed verdict.
func (d *reasonDeployment) op(int) sample {
	base := "/datasets/" + reasonDataset
	start := time.Now()
	var impl struct {
		Results []struct {
			Verdict string `json:"verdict"`
		} `json:"results"`
	}
	err := d.c.call("POST", base+"/implication", []byte(reasonGoals), &impl)
	t1 := time.Now()
	var cons struct {
		Consistent bool `json:"consistent"`
	}
	if err == nil {
		err = d.c.call("GET", d.f.consURL, nil, &cons)
	}
	t2 := time.Now()
	var min struct {
		Kept    int               `json:"kept"`
		Dropped []json.RawMessage `json:"dropped"`
	}
	if err == nil {
		err = d.c.call("POST", base+"/minimize", nil, &min)
	}
	t3 := time.Now()
	s := sample{op: t3.Sub(start), first: t1.Sub(start), work: 3, err: err, reqs: []request{
		{"POST implication", start, t1}, {"GET consistency", t1, t2}, {"POST minimize", t2, t3}}}
	if err == nil {
		s.err = checkVerdicts(impl.Results, cons.Consistent, min.Kept, len(min.Dropped))
	}
	return s
}

func checkVerdicts(impl []struct {
	Verdict string `json:"verdict"`
}, consistent bool, kept, dropped int) error {
	switch {
	case len(impl) != 2 || impl[0].Verdict != "implied" || impl[1].Verdict != "not-implied":
		return fmt.Errorf("implication verdicts %v, want [implied not-implied]", impl)
	case !consistent:
		return errors.New("consistency check answered inconsistent")
	case kept != reasonKept || dropped != reasonTotal-reasonKept:
		return fmt.Errorf("minimize kept %d and dropped %d, want %d and %d", kept, dropped, reasonKept, reasonTotal-reasonKept)
	}
	return nil
}

func (d *reasonDeployment) finish() error  { return nil }
func (d *reasonDeployment) procs() []*proc { return []*proc{d.p} }

func (d *reasonDeployment) stop() {
	if d.c != nil {
		d.c.close()
	}
	d.p.stop()
}
