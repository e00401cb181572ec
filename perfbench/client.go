package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client is the load generator's single keep-alive connection to one
// server. It stays thin on purpose: streams are counted and hashed line by
// line, never decoded, so the client bills as little CPU as possible to the
// two cores it shares with the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 200 JSON answer into out (nil
// discards it).
func (c *client) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode answer: %w", method, path, err)
	}
	return nil
}

// digest identifies a violations stream without decoding it: the number of
// violation lines, an order-independent sum of their hashes and an
// order-dependent chain of them. The parallel engine interleaves detection
// groups, so a single node's stream is checked as a multiset; the router
// promises the exact single-node report order, so its stream is checked as
// a sequence.
type digest struct {
	count    int64
	multiset uint64
	ordered  uint64
}

// lineSeed keys every line hash in this process: the reference digests
// are computed in-process, so only equality within one run matters.
var lineSeed = maphash.MakeSeed()

func (d *digest) add(line []byte) {
	h := maphash.Bytes(lineSeed, line)
	d.count++
	d.multiset += h
	d.ordered = d.ordered*0x100000001b3 + h
}

// streamStats is one violations stream as the client saw it.
type streamStats struct {
	digest
	total   time.Duration // request sent → terminal trailer read
	first   time.Duration // request sent → first violation line read; 0 if none
	trailer int64         // the count the trailer announced
}

var (
	trailerPrefix = []byte(`{"done":true,"count":`)
	errorPrefix   = []byte(`{"error":`)
)

// lineScanner splits an NDJSON stream into lines as bytes arrive, feeding
// violation lines to a digest and stopping at the terminal record.
type lineScanner struct {
	carry []byte
	st    *streamStats
	start time.Time
	done  bool
}

func (s *lineScanner) feed(chunk []byte) error {
	for len(chunk) > 0 {
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			s.carry = append(s.carry, chunk...)
			return nil
		}
		line := chunk[:i]
		if len(s.carry) > 0 {
			line = append(s.carry, line...)
			s.carry = s.carry[:0]
		}
		chunk = chunk[i+1:]
		if err := s.line(line); err != nil {
			return err
		}
	}
	return nil
}

func (s *lineScanner) line(line []byte) error {
	if s.done {
		return fmt.Errorf("data after the stream's terminal record: %.80q", line)
	}
	switch {
	case bytes.HasPrefix(line, trailerPrefix):
		n, err := strconv.ParseInt(string(bytes.TrimSuffix(line[len(trailerPrefix):], []byte("}"))), 10, 64)
		if err != nil {
			return fmt.Errorf("bad trailer %q", line)
		}
		s.st.trailer = n
		s.done = true
	case bytes.HasPrefix(line, errorPrefix):
		return fmt.Errorf("server ended the stream with %s", line)
	default:
		if s.st.count == 0 {
			s.st.first = time.Since(s.start)
		}
		s.st.add(line)
	}
	return nil
}

func (s *lineScanner) finish() error {
	if len(s.carry) > 0 {
		return fmt.Errorf("stream ended mid-line")
	}
	if !s.done {
		return fmt.Errorf("stream ended without its trailer")
	}
	if s.st.trailer != s.st.count {
		return fmt.Errorf("trailer counts %d violations, stream carried %d", s.st.trailer, s.st.count)
	}
	return nil
}

// stream reads GET path (an NDJSON violations stream) to its trailer.
func (c *client) stream(path string, buf []byte) (streamStats, error) {
	var st streamStats
	start := time.Now()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return st, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: only for the error text
		return st, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	sc := lineScanner{st: &st, start: start}
	for {
		n, rerr := resp.Body.Read(buf)
		if err := sc.feed(buf[:n]); err != nil {
			return st, fmt.Errorf("GET %s: %w", path, err)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return st, fmt.Errorf("GET %s: %w", path, rerr)
		}
	}
	st.total = time.Since(start)
	if err := sc.finish(); err != nil {
		return st, fmt.Errorf("GET %s: %w", path, err)
	}
	return st, nil
}

// digestNDJSON digests an in-memory NDJSON stream exactly as stream would.
func digestNDJSON(body []byte) (digest, error) {
	var st streamStats
	sc := lineScanner{st: &st, start: time.Now()}
	if err := sc.feed(body); err != nil {
		return digest{}, err
	}
	if err := sc.finish(); err != nil {
		return digest{}, err
	}
	return st.digest, nil
}
