package stream

import "io"

// WireWriter streams already-decoded wire violations to out in one
// negotiated encoding — the relay half of a scatter-gather router, which
// receives stream.Violation values from per-shard Decoders and must
// re-emit them to the client byte-compatibly with what a single-node
// Writer would have produced. It is synchronous (the caller's loop is a
// network-bound merge, not the detection hot path, so there is nothing to
// move off of it) but batches flushes the same way: the first violation is
// flushed eagerly, after that at FlushBytes boundaries.
//
// The encoded forms are identical to Writer's: NDJSON lines and trailer
// byte-for-byte, the JSONArray document byte-for-byte, and Binary 'V'/'Z'/
// 'E' frames that only may differ in batch boundaries (the Decoder is
// indifferent to those).
type WireWriter struct {
	e      encoder
	werr   error
	closed bool
}

// NewWireWriter returns a wire-level stream writer over out. fl may be nil.
func NewWireWriter(out io.Writer, fl Flusher, enc Encoding) *WireWriter {
	return &WireWriter{e: newEncoder(out, fl, enc, DefaultFlushBytes, nil)}
}

// Send encodes one violation. It returns false once the underlying writer
// has failed (the client is gone) — the caller should stop merging.
func (w *WireWriter) Send(v *Violation) bool {
	if w.werr != nil || w.closed {
		return false
	}
	w.e.wire(v)
	if w.e.due() {
		w.werr = w.e.flush()
	}
	return w.werr == nil
}

// Close writes the encoding's clean end-of-stream trailer and flushes. It
// returns the first write error the stream hit, if any. Idempotent; the
// first of Close/CloseError wins.
func (w *WireWriter) Close() error { return w.finish("") }

// CloseError ends the stream with the encoding's terminal error record —
// the signal that the stream is truncated, not complete.
func (w *WireWriter) CloseError(msg string) error {
	if msg == "" {
		msg = "stream aborted"
	}
	return w.finish(msg)
}

// Count returns the number of violations written so far.
func (w *WireWriter) Count() int64 { return w.e.count }

func (w *WireWriter) finish(endErr string) error {
	if !w.closed && w.werr == nil {
		w.werr = w.e.terminal(endErr)
	}
	w.closed = true
	return w.werr
}
