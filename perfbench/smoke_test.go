package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/implication"
)

// Run with `go test` in this directory. It builds cindserve from the
// enclosing checkout, runs every workload and the traced run at a tiny
// size, and checks that the output names exactly the metrics in
// BENCHMARK.json.

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cindserve")
	out, err := exec.Command("go", "build", "-o", bin, "cind/cmd/cindserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build cindserve: %v\n%s", err, out)
	}
	return bin
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

func emitted(res *result) []string {
	var names []string
	for name, m := range res.Metrics {
		names = append(names, name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

func smokeOptions(t *testing.T, bin, workload string, trace int) options {
	return options{workload: workload, seconds: 0.5, trace: trace, setups: 2, commit: "smoke",
		env: env{bin: bin, work: t.TempDir(), seed: 1, scale: 0.02}}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildServer(t)
	want := declared(t, "end_to_end")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(smokeOptions(t, bin, w.name, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := emitted(res); !slices.Equal(got, want) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	bin := buildServer(t)
	o := smokeOptions(t, bin, "scan", 1)
	o.seconds = 1
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if got, want := emitted(res), declared(t, "per_layer"); !slices.Equal(got, want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	traces, err := filepath.Glob(filepath.Join(o.work, "traces", "*.jsonl"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("trace files %v, %v; want one", traces, err)
	}
}

// TestSeedsKeepTheWorkloadShape checks, at full size, that a seed other
// than the default still yields what each workload relies on: CFD and
// CIND violations for scan and routed, report-changing deltas for ingest,
// and 35→11 for reason.
func TestSeedsKeepTheWorkloadShape(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db, set, err := scanInputs(seed, 1).load()
		if err != nil {
			t.Fatal(err)
		}
		res := detect.Run(db, set.CFDs(), set.CINDs(), detect.Options{})
		if len(res.CFD) == 0 || len(res.CIND) == 0 || res.Total() < 10000 {
			t.Errorf("seed %d: scan has %d CFD and %d CIND violations; want both, ≥10000 in all", seed, len(res.CFD), len(res.CIND))
		}

		in, sc := ingestInputs(seed, 1)
		db, set, err = in.load()
		if err != nil {
			t.Fatal(err)
		}
		if db.Size() < 10000 {
			t.Errorf("seed %d: ingest seeds %d tuples, want ≥10000", seed, db.Size())
		}
		sess := detect.NewSession(db, set.CFDs(), set.CINDs())
		changed := 0
		for i := 0; i < 50; i++ {
			diff, err := sess.Apply(toDeltas(sc.batch())...)
			if err != nil {
				t.Fatal(err)
			}
			if !diff.Empty() {
				changed++
			}
		}
		if changed < 40 {
			t.Errorf("seed %d: only %d of 50 ingest batches changed the report", seed, changed)
		}

		rin, _, err := reasonInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		rset, err := cind.ParseConstraints(rin.spec)
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := implication.MinimalCoverCertified(context.Background(), rset.Schema(), rset.CINDs(), implication.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rset.Len() != reasonTotal || len(kept)+len(rset.CFDs()) != reasonKept {
			t.Errorf("seed %d: minimize keeps %d of %d, want %d of %d", seed, len(kept)+len(rset.CFDs()), rset.Len(), reasonKept, reasonTotal)
		}
	}
}

// TestCalibrationScale checks that a timing is scaled by the median of the
// kernel samples nearest it, so a slow stretch of the host only scales the
// ops taken during it.
func TestCalibrationScale(t *testing.T) {
	c := &calibration{}
	t0 := time.Now()
	for i := 0; i < 3*calibrationWindow; i++ {
		took := calibrationRefMs // the first and last stretch run at the reference speed
		if i >= calibrationWindow && i < 2*calibrationWindow {
			took = 2 * calibrationRefMs // the middle one at half of it
		}
		c.at = append(c.at, t0.Add(time.Duration(i)*time.Second))
		c.took = append(c.took, took)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Hour, 1},
		{3 * time.Second, 1},
		{time.Duration(3*calibrationWindow/2) * time.Second, 0.5},
		{time.Hour, 1},
	} {
		if got := c.scale(t0.Add(tc.at)); got != tc.want {
			t.Errorf("scale at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	m := &measurement{cal: c}
	if got := m.scaled(t0.Add(22*time.Second), 10*time.Millisecond, false); got != 5 {
		t.Errorf("scaled 10ms in the slow stretch = %v ms, want 5", got)
	}
	if got := m.scaled(t0.Add(22*time.Second), 10*time.Millisecond, true); got != 10 {
		t.Errorf("wall 10ms = %v ms, want 10", got)
	}
}
