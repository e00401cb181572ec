package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one CRC-correct binary frame around payload — the fuzz
// seeds' own tiny encoder, so the seeds exercise the tag dispatch and the
// batch codec, not just the CRC gate.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

func uv(u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return tmp[:n]
}

func str(s string) []byte {
	return append(uv(uint64(len(s))), s...)
}

// seedStreams returns hand-built binary streams covering the protocol's
// corners: clean, error-terminated, truncated, and corrupt.
func seedStreams() [][]byte {
	// One violation: kind, constraint, relation, row 0 (zigzag), one
	// witness tuple of two values.
	var v bytes.Buffer
	v.Write(str("cfd"))
	v.Write(str("phi"))
	v.Write(str("r"))
	v.WriteByte(0) // zigzag varint 0
	v.Write(uv(1))
	v.Write(uv(2))
	v.Write(str("a"))
	v.Write(str("b"))
	batch := append([]byte{'V'}, v.Bytes()...)

	clean := append(frame(batch), frame(append([]byte{'Z'}, uv(1)...))...)
	empty := frame(append([]byte{'Z'}, uv(0)...))
	errTerm := append(frame(batch), frame(append([]byte{'E'}, "context canceled"...))...)
	truncated := clean[:len(clean)-5]
	corrupt := bytes.Clone(clean)
	corrupt[9] ^= 0xFF
	badTag := frame([]byte{'Q', 1, 2, 3})
	badCount := append(frame(batch), frame(append([]byte{'Z'}, uv(9)...))...)
	return [][]byte{clean, empty, errTerm, truncated, corrupt, badTag, badCount, {}, []byte("garbage")}
}

// FuzzStreamDecode hammers the binary frame decoder: arbitrary bytes must
// never panic, never allocate past what the input carries, and decoding
// must be deterministic — the same bytes yield the same violations and the
// same terminal state twice.
func FuzzStreamDecode(f *testing.F) {
	for _, seed := range seedStreams() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs1, err1 := DecodeAll(bytes.NewReader(data), Binary)
		vs2, err2 := DecodeAll(bytes.NewReader(data), Binary)
		if (err1 == nil) != (err2 == nil) || len(vs1) != len(vs2) {
			t.Fatalf("non-deterministic decode: (%d, %v) vs (%d, %v)", len(vs1), err1, len(vs2), err2)
		}
		if err1 == nil {
			// A clean decode means a trailer was present and its count
			// matched; pin the invariant through the Decoder surface too.
			d := NewDecoder(bytes.NewReader(data), Binary)
			n := 0
			for {
				_, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("DecodeAll clean but Next failed: %v", err)
				}
				n++
			}
			if int64(n) != d.Count() {
				t.Fatalf("decoded %d violations, trailer says %d", n, d.Count())
			}
		}
	})
}

// fuzzCorpora returns the committed seed corpus of each fuzz target: file
// bodies in the go test fuzz v1 format, one per seed.
func fuzzCorpora() map[string][]string {
	out := map[string][]string{}
	for _, seed := range seedStreams() {
		out["FuzzStreamDecode"] = append(out["FuzzStreamDecode"], fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed))
	}
	for _, seed := range jsonSeeds() {
		out["FuzzJSONEncoding"] = append(out["FuzzJSONEncoding"], seed.corpusEntry())
	}
	return out
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz when STREAM_REGEN_CORPUS=1 — run it after changing the
// binary format or a seed list, commit the result. Otherwise it verifies
// that every committed seed is present, byte for byte.
func TestRegenerateFuzzCorpus(t *testing.T) {
	regen := os.Getenv("STREAM_REGEN_CORPUS") == "1"
	for target, bodies := range fuzzCorpora() {
		dir := filepath.Join("testdata", "fuzz", target)
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, body := range bodies {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if regen {
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("committed fuzz corpus incomplete (run with STREAM_REGEN_CORPUS=1): %v", err)
			}
			if string(got) != body {
				t.Fatalf("%s is stale (run with STREAM_REGEN_CORPUS=1)", name)
			}
		}
	}
}
