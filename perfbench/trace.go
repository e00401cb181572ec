package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share
// Op; Parent is the span that caused this one (0 for the run itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span whose end is set by the returned function; children
// name its id as their parent.
func (t *tracer) open(name string, parent int) (id int, end func()) {
	t.ops++
	id = t.record(name, parent, t.ops, time.Now(), time.Time{})
	return id, func() { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }
}

// time runs fn n times, one span each under parent, and returns the
// durations.
func (t *tracer) time(name string, parent, n int, fn func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t.ops++
		start := time.Now()
		fn()
		end := time.Now()
		t.record(name, parent, t.ops, start, end)
		out[i] = end.Sub(start)
	}
	return out
}

// sample records one span per successful op of a pass: the op itself and
// a child per HTTP request.
func (t *tracer) sample(name string, parent int, s sample) {
	if s.err != nil || len(s.reqs) == 0 {
		return
	}
	t.ops++
	id := t.record(name, parent, t.ops, s.reqs[0].start, s.reqs[len(s.reqs)-1].end)
	for _, r := range s.reqs {
		t.record(r.name, id, t.ops, r.start, r.end)
	}
}

// durations of every span named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is the traced run. It makes one HTTP pass per workload with a
// span per op and per request, then replays each layer in-process on the
// same generated inputs with a span around every call, and derives the
// per-layer metrics from the spans. On the selected workload's pass only
// every other op is traced, which gives the tracing overhead: the traced
// ops' median against the untraced ops' median, interleaved so that drift
// over the pass cancels.
func runTraced(sel workload, o options) (*result, []named, error) {
	tr := newTracer()
	root, endRoot := tr.open("run", 0)
	pass := o.seconds / float64(len(workloads)+1)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var traced, plain []float64
	for _, w := range workloads {
		d, m, err := deploy(w, &o.env, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		passID, endPass := tr.open("pass."+w.name, root)
		if w.name == sel.name {
			m.loop(w, d, 2*pass, func(i int, s sample) {
				if s.err != nil {
					return
				}
				if i%2 == 1 {
					plain = append(plain, ms(s.op))
					return
				}
				tr.sample("op."+w.name, passID, s)
				traced = append(traced, ms(s.op))
			})
		} else {
			m.loop(w, d, pass, func(_ int, s sample) { tr.sample("op."+w.name, passID, s) })
		}
		err = m.finish(w, d)
		d.stop()
		endPass()
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += m.attempted
		res.Failed += m.failed
	}
	overhead := 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)

	lr, err := replayLayers(tr, root, o)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += lr.checks
	res.Failed += lr.failed
	endRoot()

	lines := lr.metrics
	median := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	lines = append(lines,
		named{"server.stream_self_ms", metric{median("op.scan") - lr.streamWork, "ms"}},
		named{"server.delta_self_us", metric{1000*median("POST deltas") - lr.deltaWorkUs, "us"}},
		named{"router.self_ms", metric{median("op.routed") - lr.routerWork, "ms"}},
		named{"trace.overhead_pct", metric{overhead, "%"}},
	)
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", sel.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	res.Correct = res.Failed == 0
	for _, l := range lines {
		res.Metrics[l.name] = l.metric
	}
	return res, lines, nil
}
