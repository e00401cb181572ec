package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/wal"
)

// testSpec is a two-constraint fixture: duplicate keys in r violate phi,
// and every r tuple whose a-value is missing from s violates psi — so a
// small CSV yields a mixed CFD/CIND violation stream.
const testSpec = `
relation r(a, b, c)
relation s(a)

cfd phi: r(a -> b) {
  (_ || _)
}

cind psi: r[a; nil] <= s[a; nil] {
  (_ || _)
}
`

// testViolations runs the real engine over a generated instance and
// returns the violations in deterministic (parallelism-1) stream order.
func testViolations(t testing.TB, rows int) []detect.Violation {
	t.Helper()
	set, err := cind.ParseConstraints(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	db := cind.NewDatabase(set.Schema())
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	keys := rows/3 + 1
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "key-%d,val-%d,c%d\n", i%keys, i, i)
	}
	if err := cind.LoadCSV(db, "r", strings.NewReader(sb.String()), true); err != nil {
		t.Fatal(err)
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
	if len(out) == 0 {
		t.Fatal("fixture produced no violations")
	}
	return out
}

// encodeStream drives a Writer over the violations and returns the raw
// stream bytes.
func encodeStream(t testing.TB, vs []detect.Violation, enc Encoding, endErr string, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, enc, opts)
	for _, v := range vs {
		if !w.Send(v) {
			t.Fatal("Send reported failure on a healthy buffer")
		}
	}
	var err error
	if endErr != "" {
		err = w.CloseError(endErr)
	} else {
		err = w.Close()
	}
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := w.Count(); got != int64(len(vs)) {
		t.Fatalf("Count = %d, want %d", got, len(vs))
	}
	return buf.Bytes()
}

func wantWire(vs []detect.Violation) []Violation {
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = Convert(v)
	}
	return out
}

func assertSameViolations(t testing.TB, label string, got, want []Violation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: violation %d = %s, want %s", label, i, g, w)
		}
	}
}

var allEncodings = []Encoding{NDJSON, JSONArray, Binary}

// TestRoundTrip: for every encoding, a written stream decodes back to the
// identical violations, in order, with the trailer count intact — the
// core differential property the server suite then pins over HTTP.
func TestRoundTrip(t *testing.T) {
	vs := testViolations(t, 200)
	want := wantWire(vs)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			raw := encodeStream(t, vs, enc, "", Options{})
			got, err := DecodeAll(bytes.NewReader(raw), enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			assertSameViolations(t, enc.String(), got, want)

			d := NewDecoder(bytes.NewReader(raw), enc)
			n := 0
			for {
				_, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				n++
			}
			if d.Count() != int64(n) || n != len(want) {
				t.Fatalf("trailer count %d, decoded %d, want %d", d.Count(), n, len(want))
			}
		})
	}
}

// TestRoundTripEmpty: a violation-free stream still carries its terminal
// record in every encoding — an empty stream and a dead connection must
// never look alike.
func TestRoundTripEmpty(t *testing.T) {
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			raw := encodeStream(t, nil, enc, "", Options{})
			if len(raw) == 0 {
				t.Fatal("empty stream wrote no terminal record")
			}
			got, err := DecodeAll(bytes.NewReader(raw), enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != 0 {
				t.Fatalf("decoded %d violations from an empty stream", len(got))
			}
		})
	}
}

// TestErrorTerminal: a CloseError stream yields every violation sent, then
// *RemoteError with the message — in every encoding.
func TestErrorTerminal(t *testing.T) {
	vs := testViolations(t, 30)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			raw := encodeStream(t, vs, enc, "drain: context canceled", Options{})
			got, err := DecodeAll(bytes.NewReader(raw), enc)
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("decode error = %v, want *RemoteError", err)
			}
			if re.Msg != "drain: context canceled" {
				t.Fatalf("remote error %q", re.Msg)
			}
			assertSameViolations(t, enc.String(), got, wantWire(vs))
		})
	}
}

// TestTruncationDetected: every proper prefix of a valid stream must fail
// to decode cleanly — io.EOF may only come from the terminal record. The
// final bytes of the NDJSON/JSON forms are a cosmetic trailing newline, so
// those cuts stop one byte earlier.
func TestTruncationDetected(t *testing.T) {
	vs := testViolations(t, 12)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			raw := encodeStream(t, vs, enc, "", Options{})
			end := len(raw)
			if enc != Binary {
				end-- // without the trailing newline the stream is still complete
			}
			for cut := 0; cut < end; cut++ {
				_, err := DecodeAll(bytes.NewReader(raw[:cut]), enc)
				if err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded as a complete stream", cut, len(raw))
				}
			}
			// Cutting nothing decodes cleanly.
			if _, err := DecodeAll(bytes.NewReader(raw), enc); err != nil {
				t.Fatalf("full stream: %v", err)
			}
		})
	}
}

// TestBinaryCorruption: flipping any byte of a binary stream must never
// yield a clean decode with different content — CRC framing turns
// corruption into an error.
func TestBinaryCorruption(t *testing.T) {
	vs := testViolations(t, 12)
	raw := encodeStream(t, vs, Binary, "", Options{})
	want, err := DecodeAll(bytes.NewReader(raw), Binary)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x40
		got, err := DecodeAll(bytes.NewReader(mut), Binary)
		if err == nil {
			assertSameViolations(t, fmt.Sprintf("byte %d flipped yet decoded clean", i), got, want)
		}
	}
}

// TestWALFrameCompatibility: the binary stream is a valid WAL frame
// sequence — wal.Decode walks it intact, and a mid-frame cut shows up as
// a shortened validEnd, exactly the torn-tail discipline the WAL pins.
func TestWALFrameCompatibility(t *testing.T) {
	vs := testViolations(t, 50)
	raw := encodeStream(t, vs, Binary, "", Options{})
	records, validEnd := wal.Decode(raw)
	if validEnd != int64(len(raw)) {
		t.Fatalf("wal.Decode validEnd = %d, want %d", validEnd, len(raw))
	}
	if len(records) < 2 {
		t.Fatalf("stream of %d violations decoded to %d WAL records", len(vs), len(records))
	}
	for i, rec := range records {
		tag := rec.Payload[0]
		last := i == len(records)-1
		if last && tag != 'Z' {
			t.Fatalf("final frame tag %q, want Z", tag)
		}
		if !last && tag != 'V' {
			t.Fatalf("frame %d tag %q, want V", i, tag)
		}
	}
	if _, validEnd := wal.Decode(raw[:len(raw)-3]); validEnd >= int64(len(raw)-3) {
		t.Fatalf("torn tail not detected: validEnd %d of %d", validEnd, len(raw)-3)
	}
}

// TestNegotiate pins the Accept mapping, including the defaulting rules
// that keep pre-negotiation clients on NDJSON.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   Encoding
	}{
		{"", NDJSON},
		{"*/*", NDJSON},
		{"text/html", NDJSON},
		{"application/x-ndjson", NDJSON},
		{"application/json", JSONArray},
		{"application/x-cind-frames", Binary},
		{"Application/JSON", JSONArray},
		{" application/json ; q=0.9", JSONArray},
		{"text/html, application/x-cind-frames", Binary},
		{"application/json, application/x-cind-frames", JSONArray},
		{"application/x-cind-frames;q=0.2, application/json", Binary},
	}
	for _, c := range cases {
		if got := Negotiate(c.accept); got != c.want {
			t.Errorf("Negotiate(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// TestParseEncoding round-trips the flag spellings and rejects junk.
func TestParseEncoding(t *testing.T) {
	for _, enc := range allEncodings {
		got, err := ParseEncoding(enc.String())
		if err != nil || got != enc {
			t.Fatalf("ParseEncoding(%q) = %v, %v", enc.String(), got, err)
		}
	}
	if _, err := ParseEncoding("protobuf"); err == nil {
		t.Fatal("ParseEncoding accepted junk")
	}
}

// timedWriter records each Write's instant, for flush-policy assertions.
type timedWriter struct {
	mu     sync.Mutex
	writes []time.Time
	sizes  []int
}

func (w *timedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, time.Now())
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

func (w *timedWriter) snapshot() []time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Time(nil), w.writes...)
}

// TestFlushPolicy: the first violation is flushed eagerly (first-violation
// latency), later buffered bytes reach the writer within the flush
// interval even when the size threshold is never hit, and nothing is lost
// at Close.
func TestFlushPolicy(t *testing.T) {
	vs := testViolations(t, 10)
	out := &timedWriter{}
	w := NewWriter(out, nil, NDJSON, Options{
		FlushBytes:    1 << 30, // size flushing out of the picture
		FlushInterval: 25 * time.Millisecond,
		BatchSize:     1, // push every Send
		PushInterval:  time.Millisecond,
	})
	start := time.Now()
	w.Send(vs[0])
	deadline := time.Now().Add(2 * time.Second)
	for len(out.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first violation never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if d := out.snapshot()[0].Sub(start); d > 500*time.Millisecond {
		t.Fatalf("first flush after %v, want eager", d)
	}

	// A second violation is below every size threshold; only the deadline
	// can flush it.
	w.Send(vs[1])
	for len(out.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never fired")
		}
		time.Sleep(time.Millisecond)
	}

	for _, v := range vs[2:] {
		w.Send(v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// lineWriter counts the newline-terminated records written to it.
type lineWriter struct {
	mu    sync.Mutex
	lines int
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lines += bytes.Count(p, []byte("\n"))
	return len(p), nil
}

func (w *lineWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lines
}

// TestPushDeadline: a micro-batch that never fills still reaches the
// encoder. With a batch size no stream reaches, the first Send after
// PushInterval must push what the micro-batch holds, so both violations
// arrive before Close, which would otherwise be the first push.
func TestPushDeadline(t *testing.T) {
	vs := testViolations(t, 4)
	out := &lineWriter{}
	w := NewWriter(out, nil, NDJSON, Options{
		FlushInterval: time.Millisecond,
		BatchSize:     1 << 20,
		PushInterval:  time.Millisecond,
	})
	w.Send(vs[0])
	time.Sleep(10 * time.Millisecond)
	w.Send(vs[1])
	deadline := time.Now().Add(5 * time.Second)
	for out.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 violations reached the sink before Close", out.count())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := out.count(); got != 3 { // two violations and the trailer
		t.Fatalf("stream has %d lines, want 3", got)
	}
}

// failAfterWriter fails every Write after the first n bytes.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errors.New("broken pipe")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriterFailure: once the sink fails, Send reports it (within the
// micro-batch bound) and Close surfaces the write error.
func TestWriterFailure(t *testing.T) {
	vs := testViolations(t, 50)
	w := NewWriter(&failAfterWriter{n: 1}, nil, NDJSON, Options{
		BatchSize:    1,
		PushInterval: time.Millisecond,
	})
	sawFalse := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawFalse && time.Now().Before(deadline) {
		for _, v := range vs {
			if !w.Send(v) {
				sawFalse = true
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !sawFalse {
		t.Fatal("Send never reported the dead sink")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close returned nil after write failures")
	}
}

// TestDecodeAllRejectsGarbage: byte soup is an error in every encoding,
// never a clean empty stream.
func TestDecodeAllRejectsGarbage(t *testing.T) {
	for _, enc := range allEncodings {
		if _, err := DecodeAll(strings.NewReader("not a violation stream"), enc); err == nil {
			t.Fatalf("%v decoded garbage cleanly", enc)
		}
	}
}

// TestTrailerCountMismatch: a trailer whose count disagrees with the
// violations on the wire is corruption, not a clean end.
func TestTrailerCountMismatch(t *testing.T) {
	vs := testViolations(t, 5)
	raw := encodeStream(t, vs, NDJSON, "", Options{})
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	lines[len(lines)-1] = []byte(`{"done":true,"count":999}`)
	_, err := DecodeAll(bytes.NewReader(bytes.Join(lines, []byte("\n"))), NDJSON)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("mismatched trailer count decoded cleanly: %v", err)
	}
}

// hookOrderWriter records, for every write, whether the BeforeTerminal
// hook had already run; the Writer calls both from its encoder goroutine.
type hookOrderWriter struct {
	bytes.Buffer
	hooked      bool
	hookedAtEnd []bool
}

func (w *hookOrderWriter) Write(p []byte) (int, error) {
	w.hookedAtEnd = append(w.hookedAtEnd, w.hooked)
	return w.Buffer.Write(p)
}

// TestBeforeTerminalRunsBeforeTrailer: the hook fires exactly once, with
// the written count, before the terminal record is written — on the
// clean, the error and the failed-sink paths.
func TestBeforeTerminalRunsBeforeTrailer(t *testing.T) {
	vs := testViolations(t, 20)
	for _, enc := range allEncodings {
		for _, endErr := range []string{"", "cancelled"} {
			out := &hookOrderWriter{}
			calls := 0
			var got int64
			w := NewWriter(out, nil, enc, Options{BeforeTerminal: func(n int64) {
				calls++
				got = n
				out.hooked = true
			}})
			for _, v := range vs {
				w.Send(v)
			}
			if endErr == "" {
				w.Close()
			} else {
				w.CloseError(endErr)
			}
			w.Close() // idempotent: must not fire the hook again
			if calls != 1 || got != int64(len(vs)) {
				t.Fatalf("%v %q: hook called %d times with %d, want once with %d", enc, endErr, calls, got, len(vs))
			}
			// The first violation is flushed eagerly, before the hook; the
			// terminal record is the last write, after it.
			n := len(out.hookedAtEnd)
			if n < 2 || out.hookedAtEnd[0] || !out.hookedAtEnd[n-1] {
				t.Fatalf("%v %q: hook must run after the first flush and before the terminal record: %v", enc, endErr, out.hookedAtEnd)
			}
		}
	}
	calls := 0
	w := NewWriter(&failAfterWriter{n: 0}, nil, NDJSON, Options{BeforeTerminal: func(int64) { calls++ }})
	w.Send(vs[0])
	if err := w.Close(); err == nil {
		t.Fatal("Close returned nil on a dead sink")
	}
	if calls != 1 {
		t.Fatalf("hook called %d times on a dead sink, want 1", calls)
	}
}
