package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cind "cind"

	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/types"
)

// refStream is the test oracle for the JSON encodings: the stream a
// Writer must produce for vs, built with encoding/json alone.
func refStream(t testing.TB, vs []Violation, enc Encoding, endErr string) []byte {
	t.Helper()
	var out bytes.Buffer
	je := json.NewEncoder(&out)
	var err error
	switch enc {
	case NDJSON:
		for i := range vs {
			if err = je.Encode(&vs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if endErr != "" {
			err = je.Encode(struct {
				Error string `json:"error"`
			}{endErr})
		} else {
			err = je.Encode(struct {
				Done  bool `json:"done"`
				Count int  `json:"count"`
			}{true, len(vs)})
		}
	case JSONArray:
		all := append([]Violation{}, vs...) // [] rather than null when empty
		if endErr != "" {
			err = je.Encode(struct {
				Violations []Violation `json:"violations"`
				Error      string      `json:"error"`
			}{all, endErr})
		} else {
			err = je.Encode(struct {
				Violations []Violation `json:"violations"`
				Done       bool        `json:"done"`
				Count      int         `json:"count"`
			}{all, true, len(vs)})
		}
	default:
		t.Fatalf("refStream: no JSON oracle for %s", enc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// oddValues need escaping, or are tempting to get wrong: HTML
// characters, control bytes, invalid and truncated UTF-8, the JavaScript
// line separators, multibyte text and a long run.
var oddValues = []string{
	"", "<b>&amp;</b>", "tab\there\r\n", `quote"back\slash`, "\x00\x01\x08\x0c\x1f\x7f",
	"bad\xffutf8", "cut\xe2\x82", "line\u2028para\u2029", "caf\u00e9 \u4e2d\u6587 \U0001f600",
	strings.Repeat("long<>", 200),
}

// bankViolations returns the engine's stream for the paper's Figure 1
// fixtures (testdata/bank): one CFD and one CIND violation.
func bankViolations(t testing.TB) []detect.Violation {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "bank")
	src, err := os.ReadFile(filepath.Join(dir, "bank.cind"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := cind.ParseConstraints(string(src))
	if err != nil {
		t.Fatal(err)
	}
	db := cind.NewDatabase(set.Schema())
	for _, rel := range []string{"interest", "saving", "checking", "account_NYC", "account_EDI"} {
		f, err := os.Open(filepath.Join(dir, rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = cind.LoadCSV(db, rel, f, true)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	chk, err := cind.NewChecker(db, set, cind.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []detect.Violation
	for v, verr := range chk.Violations(context.Background()) {
		if verr != nil {
			t.Fatal(verr)
		}
		out = append(out, v)
	}
	if len(out) != 2 {
		t.Fatalf("bank fixtures: %d violations, want 2", len(out))
	}
	return out
}

// genViolations returns the engine's stream for a generated workload
// (internal/gen): its witness database plus, per relation, copies of the
// witness tuple with random attributes replaced by oddValues — which
// breaks constant patterns and inclusions, so both kinds fire.
func genViolations(t testing.TB, seed int64) []detect.Violation {
	t.Helper()
	w := gen.New(gen.Config{Relations: 6, Card: 60, Consistent: true, Seed: seed})
	db := w.Witness.Clone()
	rng := rand.New(rand.NewSource(seed))
	for _, rel := range w.Schema.Relations() {
		base := w.Witness.Instance(rel.Name()).Tuples()
		if len(base) == 0 {
			continue
		}
		for i := 0; i < 20; i++ {
			tup := base[0].Clone()
			for j := range tup {
				if rng.Intn(3) == 0 {
					tup[j] = types.C(oddValues[rng.Intn(len(oddValues))])
				}
			}
			db.Insert(rel.Name(), tup)
		}
	}
	var out []detect.Violation
	err := detect.Each(context.Background(), db, w.CFDs, w.CINDs, detect.Options{Parallel: 1}, func(v detect.Violation) bool {
		out = append(out, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, v := range out {
		kinds[v.Kind().String()] = true
	}
	if !kinds["cfd"] || !kinds["cind"] {
		t.Fatalf("gen seed %d: violations of kinds %v, want both", seed, kinds)
	}
	return out
}

func byteFixtures(t *testing.T) map[string][]detect.Violation {
	return map[string][]detect.Violation{
		"bank":  bankViolations(t),
		"gen1":  genViolations(t, 1),
		"gen7":  genViolations(t, 7),
		"mixed": testViolations(t, 3000),
		"empty": nil,
	}
}

// TestWriterBytesMatchEncodingJSON: for every fixture, both JSON
// encodings, and a clean, an error and an empty end, the Writer's stream
// equals the encoding/json oracle byte for byte.
func TestWriterBytesMatchEncodingJSON(t *testing.T) {
	for name, vs := range byteFixtures(t) {
		for _, enc := range []Encoding{NDJSON, JSONArray} {
			for _, endErr := range []string{"", "context canceled", "shard <2> & \"3\"\n\xff"} {
				got := encodeStream(t, vs, enc, endErr, Options{})
				want := refStream(t, wantWire(vs), enc, endErr)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%q: stream diverges from encoding/json:\n%s", name, enc, endErr, firstDiff(got, want))
				}
			}
		}
	}
}

// TestWireWriterBytesMatchEncodingJSON: the relay path, fed the wire form
// of the same fixtures plus wire values only a decoder can hand it (nil
// witness, nil tuple, empty tuple), meets the same oracle.
func TestWireWriterBytesMatchEncodingJSON(t *testing.T) {
	fixtures := map[string][]Violation{
		"relay-odd": {
			{Kind: "cfd", Constraint: "phi<1>", Relation: "r&s", Row: -3},
			{Kind: "cind", Constraint: "", Relation: "", Row: 1 << 40, Witness: [][]string{nil, {}, oddValues}},
			{Kind: "\u2028", Witness: [][]string{}},
		},
	}
	for name, vs := range byteFixtures(t) {
		fixtures[name] = wantWire(vs)
	}
	for name, vs := range fixtures {
		for _, enc := range []Encoding{NDJSON, JSONArray} {
			for _, endErr := range []string{"", "shard 1 went away <&>"} {
				var got bytes.Buffer
				w := NewWireWriter(&got, nil, enc)
				for i := range vs {
					if !w.Send(&vs[i]) {
						t.Fatalf("%s/%s: Send %d = false", name, enc, i)
					}
				}
				var err error
				if endErr != "" {
					err = w.CloseError(endErr)
				} else {
					err = w.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				want := refStream(t, vs, enc, endErr)
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s/%s/%q: relay diverges from encoding/json:\n%s", name, enc, endErr, firstDiff(got.Bytes(), want))
				}
			}
		}
	}
}

// firstDiff renders the neighbourhood of the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	span := func(b []byte) []byte { return b[min(max(0, i-60), len(b)):min(i+60, len(b))] }
	return fmt.Sprintf("at byte %d:\ngot  %q\nwant %q", i, span(got), span(want))
}

// TestEncodeSteadyStateAllocs pins the encoder's per-violation cost at
// zero allocations once its buffer has grown: NDJSON and JSONArray from
// engine values, and the relay path from wire values.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	vs := testViolations(t, 600)
	wire := wantWire(vs)
	for _, enc := range []Encoding{NDJSON, JSONArray} {
		e := newEncoder(io.Discard, nil, enc, DefaultFlushBytes, make([]byte, 0, 2*DefaultFlushBytes))
		i := 0
		step := func() {
			e.violation(&vs[i%len(vs)])
			e.wire(&wire[i%len(wire)])
			i++
			if e.due() {
				if err := e.flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 2 * len(vs) {
			step()
		}
		if got := testing.AllocsPerRun(5*len(vs), step); got != 0 {
			t.Fatalf("%s: %.2f allocations per violation, want 0", enc, got/2)
		}
	}
}

// fuzzViolation builds an engine violation of the kind shape selects (CFD,
// CIND, or the zero value) from fuzzed strings.
func fuzzViolation(shape uint8, id, rel string, row int, a, b string) detect.Violation {
	switch shape % 3 {
	case 0:
		return detect.CFDViolation(cfd.Violation{
			CFD:    &cfd.CFD{ID: id, Rel: rel},
			RowIdx: row,
			T1:     instance.Consts(a, b),
			T2:     instance.Consts(b),
		})
	case 1:
		return detect.CINDViolation(core.Violation{
			CIND:   &core.CIND{ID: id, LHSRel: rel},
			RowIdx: row,
			T:      instance.Consts(b, a, id),
		})
	}
	return detect.Violation{}
}

// jsonSeed is one FuzzJSONEncoding input.
type jsonSeed struct {
	s, id, rel string
	row        int
	a          string
	shape      uint8
}

// corpusEntry renders the seed in the go test fuzz v1 corpus file format.
func (j jsonSeed) corpusEntry() string {
	return fmt.Sprintf("go test fuzz v1\nstring(%q)\nstring(%q)\nstring(%q)\nint(%d)\nstring(%q)\nuint8(%d)\n",
		j.s, j.id, j.rel, j.row, j.a, j.shape)
}

// jsonSeeds are FuzzJSONEncoding's committed seeds: the escaper's corner
// cases as s, each paired with a rotating violation shape and row.
func jsonSeeds() []jsonSeed {
	var lows []byte
	for b := 0; b < 0x20; b++ {
		lows = append(lows, byte(b))
	}
	strs := []string{
		"", "<&>", string(lows), "\x7f", "\xff", "\xe2\x82", "\u2028\u2029",
		strings.Repeat("ascii-<&>-\u00e9-\u2028-", 300),
	}
	out := make([]jsonSeed, len(strs))
	for i, s := range strs {
		out[i] = jsonSeed{s, fmt.Sprintf("phi%d", i), "checking", i - 3, "NYC", uint8(i)}
	}
	return out
}

// FuzzJSONEncoding holds the hand-written JSON appenders to encoding/json:
// the string escaper against json.Marshal of a string, appendJSONViolation
// against json.Marshal(Convert(v)), and appendJSONWire against
// json.Marshal of the wire value, also with a nil witness and nil tuples.
func FuzzJSONEncoding(f *testing.F) {
	for _, j := range jsonSeeds() {
		f.Add(j.s, j.id, j.rel, j.row, j.a, j.shape)
	}
	f.Fuzz(func(t *testing.T, s, id string, rel string, row int, a string, shape uint8) {
		assertJSON(t, "string", appendJSONString(nil, s), s)

		v := fuzzViolation(shape, id, rel, row, s, a)
		w := Convert(v)
		assertJSON(t, "engine violation", appendJSONViolation(nil, &v), w)
		assertJSON(t, "wire violation", appendJSONWire(nil, &w), &w)
		w.Witness = append(w.Witness, nil)
		assertJSON(t, "wire nil tuple", appendJSONWire(nil, &w), &w)
		w.Witness = nil
		assertJSON(t, "wire nil witness", appendJSONWire(nil, &w), &w)
	})
}

func assertJSON(t *testing.T, label string, got []byte, oracle any) {
	t.Helper()
	want, err := json.Marshal(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: got %q, encoding/json wrote %q", label, got, want)
	}
}

// BenchmarkStreamEncode times a whole Writer stream per encoding over the
// mixed CFD/CIND fixture; ns/violation is the per-violation encode cost
// (the Writer's goroutine handoff and flushes included).
func BenchmarkStreamEncode(b *testing.B) {
	vs := testViolations(b, 30000)
	for _, enc := range allEncodings {
		b.Run(enc.String(), func(b *testing.B) {
			b.ReportAllocs()
			var n int64
			for b.Loop() {
				w := NewWriter(io.Discard, nil, enc, Options{})
				for _, v := range vs {
					w.Send(v)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				n += w.Count()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/violation")
		})
	}
}
