package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// measurement is one run of one workload.
type measurement struct {
	setups    []timed  // one per full set-up
	samples   []sample // every op of the closed loop, failed ones included
	rssMiB    float64
	attempted int
	failed    int
	// cal, when set, times the reference kernel around every set-up and
	// between ops, so that timings can be scaled to the reference host
	// speed (calib.go). The traced run leaves it nil.
	cal *calibration
}

// timed is one interval the run measured.
type timed struct {
	at  time.Time
	dur time.Duration
}

// maxConsecutiveFailures ends a loop whose server has stopped answering,
// so a broken build fails fast instead of spinning until the deadline.
const maxConsecutiveFailures = 10

// measure sets the workload up setups times, runs its closed loop for
// seconds on the last set-up, and checks the outcome.
func measure(w workload, e *env, setups int, seconds float64) (*measurement, error) {
	d, m, err := deploy(w, e, setups, newCalibration())
	if err != nil {
		return nil, err
	}
	defer d.stop()
	m.loop(w, d, seconds, nil)
	if err := m.finish(w, d); err != nil {
		return nil, err
	}
	return m, nil
}

// deploy generates the workload's inputs and sets the system up setups
// times, timing each; every set-up but the last is stopped. A non-nil cal
// samples the reference kernel before and after every set-up.
func deploy(w workload, e *env, setups int, cal *calibration) (deployment, *measurement, error) {
	f, err := w.prepare(e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	m := &measurement{cal: cal}
	var d deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		if cal != nil {
			cal.burst(calibrationWindow / 2)
		}
		start := time.Now()
		d, err = f.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, timed{start, time.Since(start)})
		if cal != nil {
			cal.burst(calibrationWindow/2 + 1)
		}
	}
	return d, m, nil
}

// loop runs closed-loop ops on d: for seconds, or, for a workload with a
// fixed script, exactly its ops for those seconds (bounded by a generous
// deadline, so a much slower program still ends in time). each, when
// non-nil, sees every op.
func (m *measurement) loop(w workload, d deployment, seconds float64, each func(i int, s sample)) {
	budget := time.Duration(seconds * float64(time.Second))
	n := 0
	if w.opsPerSecond > 0 {
		n, budget = int(w.opsPerSecond*seconds), 5*budget
	}
	deadline := time.Now().Add(budget)
	streak := 0
	for i := 0; (n == 0 || i < n) && time.Now().Before(deadline) && streak < maxConsecutiveFailures; i++ {
		if m.cal != nil {
			m.cal.maybeSample()
		}
		start := time.Now()
		s := d.op(i)
		s.span = timed{start, time.Since(start)}
		m.samples = append(m.samples, s)
		m.attempted++
		if s.err != nil {
			m.failed++
			streak++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, i, s.err)
		} else {
			streak = 0
		}
		if each != nil {
			each(i, s)
		}
	}
	if m.cal != nil {
		// The ops at the end of the loop get as many samples after them as
		// the set-ups do.
		m.cal.burst(calibrationWindow/2 + 1)
	}
}

// finish runs the deployment's post-run correctness check, which counts as
// one more operation, and reads the servers' peak memory.
func (m *measurement) finish(w workload, d deployment) error {
	m.attempted++
	if err := d.finish(); err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s post-run check: %v\n", w.name, err)
	}
	for _, p := range d.procs() {
		rss, err := p.peakRSSMiB()
		if err != nil {
			return err
		}
		m.rssMiB += rss
	}
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scaled is d, which started at t, in ms at the reference host speed; with
// wall set, or without a calibration, it is d as the client's clock read it.
func (m *measurement) scaled(t time.Time, d time.Duration, wall bool) float64 {
	if wall || m.cal == nil {
		return ms(d)
	}
	return ms(d) * m.cal.scale(t)
}

// series collects one timing of every successful sample that has it, in
// ms, scaled unless wall is set.
func (m *measurement) series(get func(s sample) (time.Duration, bool), wall bool) []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.err != nil {
			continue
		}
		if d, ok := get(s); ok {
			out = append(out, m.scaled(s.span.at, d, wall))
		}
	}
	return out
}

// opTime and firstTime are the op's timings that every workload has.
func opTime(s sample) (time.Duration, bool)    { return s.op, true }
func firstTime(s sample) (time.Duration, bool) { return s.first, s.first > 0 }

// setupSeconds is the median set-up time.
func (m *measurement) setupSeconds(wall bool) float64 {
	xs := make([]float64, len(m.setups))
	for i, s := range m.setups {
		xs[i] = m.scaled(s.at, s.dur, wall) / 1000
	}
	return quantile(xs, 0.5)
}

// workPerSecond is the closed loop's throughput: the work of the
// successful ops over the time spent in all ops, which leaves out the
// reference kernel's samples between them.
func (m *measurement) workPerSecond(wall bool) float64 {
	work, busy := 0.0, 0.0
	for _, s := range m.samples {
		if s.err == nil {
			work += s.work
		}
		busy += m.scaled(s.span.at, s.span.dur, wall)
	}
	return work / (busy / 1000)
}

// hostSpeed is the median factor that took the loop's ops to the reference
// host speed: below 1 the host ran slower than the reference.
func (m *measurement) hostSpeed() float64 {
	var xs []float64
	for _, s := range m.samples {
		xs = append(xs, m.scaled(s.span.at, time.Millisecond, false))
	}
	return quantile(xs, 0.5)
}

// endToEnd is the untraced run's result: the metrics BENCHMARK.json names,
// at the reference host speed. Every workload reports all of them; what
// "op" and "first" mean per workload is in README.md. The p90s are in the
// summary only: on the short ops of ingest and reason they follow the
// host's bursts of stolen time, which the scaling cannot take out.
func (m *measurement) endToEnd() []named {
	return []named{
		{"setup_s", metric{m.setupSeconds(false), "s"}},
		{"op_ms_p50", metric{quantile(m.series(opTime, false), 0.5), "ms"}},
		{"first_ms_p50", metric{quantile(m.series(firstTime, false), 0.5), "ms"}},
		{"work_per_s", metric{m.workPerSecond(false), "1/s"}},
		{"peak_rss_mb", metric{m.rssMiB, "MiB"}},
	}
}

// summary restates the run under the workload's own metric names, with
// sample counts and the failure ratio. Every timing appears twice: at the
// reference host speed, and as the wall clock read it (_wall).
func (m *measurement) summary(workload string) []named {
	out := []named{
		{"host_speed", metric{m.hostSpeed(), "ratio"}},
		{"setup_s", metric{m.setupSeconds(false), "s"}},
		{"setup_s_wall", metric{m.setupSeconds(true), "s"}},
		{"setups", metric{float64(len(m.setups)), "count"}},
	}
	add := func(name string, get func(s sample) (time.Duration, bool)) {
		xs, wall := m.series(get, false), m.series(get, true)
		out = append(out,
			named{name + "_p50", metric{quantile(xs, 0.5), "ms"}},
			named{name + "_p90", metric{quantile(xs, 0.9), "ms"}},
			named{name + "_p50_wall", metric{quantile(wall, 0.5), "ms"}},
			named{name + "_p90_wall", metric{quantile(wall, 0.9), "ms"}},
			named{name + "_samples", metric{float64(len(xs)), "count"}})
	}
	rate := func(name string) {
		out = append(out,
			named{name, metric{m.workPerSecond(false), "1/s"}},
			named{name + "_wall", metric{m.workPerSecond(true), "1/s"}})
	}
	switch workload {
	case "scan", "routed":
		add("stream_ms", opTime)
		add("first_violation_ms", firstTime)
		rate("violations_per_s")
	case "ingest":
		add("delta_ack_ms", opTime)
		add("stream_ms", func(s sample) (time.Duration, bool) {
			if s.read == nil {
				return 0, false
			}
			return s.read.total, true
		})
		add("first_violation_ms", firstTime)
		rate("deltas_per_s")
	case "reason":
		for i, name := range []string{"implication_ms", "consistency_ms", "minimize_ms"} {
			add(name, func(s sample) (time.Duration, bool) {
				if len(s.reqs) != 3 {
					return 0, false
				}
				return s.reqs[i].end.Sub(s.reqs[i].start), true
			})
		}
		add("round_ms", opTime)
	}
	out = append(out,
		named{"peak_rss_mb", metric{m.rssMiB, "MiB"}},
		named{"failed_frac", metric{float64(m.failed) / float64(m.attempted), "ratio"}},
		named{"attempted", metric{float64(m.attempted), "count"}})
	return out
}

// environment stamps a result with what its timings depend on. Every
// latency is a client-side wall-clock time over loopback inside this
// container, not a property of any device.
func environment(o options) map[string]any {
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        o.commit,
		"fsync":         "always (ingest -data); scan, routed and reason run in memory",
		"data_dir_fs":   filesystemOf(o.work),
		"clients":       "1 closed-loop client, 1 keep-alive connection",
		"latency_scope": "client-side wall clock over loopback in this container; not a device figure",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type of the mount holding dir, from
// /proc/self/mountinfo (the longest mount point that prefixes dir).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		sep := slices.Index(fields, "-")
		if len(fields) < 5 || sep < 0 || sep+1 >= len(fields) {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), fields[sep+1]
		}
	}
	return fs
}
