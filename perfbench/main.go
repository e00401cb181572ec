// Command perfbench is the repository's end-to-end benchmark: it drives
// real cindserve processes over loopback with one closed-loop client and
// reports the metrics named in BENCHMARK.json. perfbench/run.py builds it
// and cindserve from the checkout and runs it; see perfbench/README.md.
//
// Usage:
//
//	perfbench -cindserve BIN -work DIR -workload scan|ingest|routed|reason
//	          [-seed N] [-seconds S] [-trace 0|1] [-commit ID]
//
// With -trace 0 it measures the workload untraced and prints every
// end-to-end metric; with -trace 1 it runs the traced pass and the
// in-process layer replays and prints every per-layer metric. The last
// line of standard output is the JSON result; the exit status is 1 when
// any operation failed or returned a wrong answer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
)

// setupsPerRun is how many full set-ups a run times; setup_s is their
// median, which a single cold start is too noisy to give.
const setupsPerRun = 11

type options struct {
	workload string
	seconds  float64
	trace    int
	setups   int
	commit   string
	env
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: scan, ingest, routed or reason")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds the closed loop measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and layer replays instead of the untraced measurement")
	flag.StringVar(&o.commit, "commit", "unknown", "identifier of the source tree under test, for the environment stamp")
	flag.StringVar(&o.bin, "cindserve", "", "cindserve binary built from the tree under test")
	flag.StringVar(&o.work, "work", "", "scratch directory for data dirs and traces")
	flag.Parse()
	o.setups, o.scale = setupsPerRun, 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output: whether every answer was right, how
// many operations ran and failed, and the metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named keeps report lines in the order they were added.
type named struct {
	name string
	metric
}

func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	case o.bin == "" || o.work == "":
		return nil, errors.New("-cindserve and -work are required")
	case o.seconds <= 0:
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	stamp := environment(o)
	var (
		res   *result
		lines []named
		err   error
	)
	if o.trace == 1 {
		res, lines, err = runTraced(w, o)
	} else {
		res, lines, err = runUntraced(w, o)
	}
	if err != nil {
		return nil, err
	}
	report(o, stamp, lines)
	return res, nil
}

// runUntraced measures one workload: o.setups full set-ups, then a closed
// loop for o.seconds on the last one, then the post-run check.
func runUntraced(w workload, o options) (*result, []named, error) {
	m, err := measure(w, &o.env, o.setups, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, n := range m.endToEnd() {
		if math.IsNaN(n.Value) {
			// No op of this kind succeeded, so the run is already marked
			// incorrect; JSON has no NaN.
			n.Value = 0
		}
		res.Metrics[n.name] = n.metric
	}
	return res, m.summary(w.name), nil
}

// report prints the environment stamp and every metric by name and unit.
func report(o options, stamp map[string]any, lines []named) {
	fmt.Printf("perfbench %s seed=%d trace=%d\n", o.workload, o.seed, o.trace)
	stampJSON, _ := json.Marshal(stamp) // a map of strings and numbers always marshals
	fmt.Printf("env %s\n", stampJSON)
	for _, l := range lines {
		fmt.Printf("  %-40s %14.4f %s\n", l.name, l.Value, l.Unit)
	}
}
