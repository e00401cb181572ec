package stream

import (
	"encoding/binary"
	"io"
	"strconv"

	"cind/internal/detect"
	"cind/internal/wal"
)

// encoder is the encoding core Writer and WireWriter share: it appends
// violations in the negotiated encoding to one buffer, flushes it to the
// client, and writes the terminal record. Every violation is appended in
// place, so the steady state allocates nothing per violation. For Binary
// the buffer is one 'V' batch payload, re-seeded with its tag after every
// flush.
type encoder struct {
	out        io.Writer
	fl         Flusher
	enc        Encoding
	flushBytes int
	buf        []byte
	started    bool  // JSONArray prologue written
	count      int64 // violations appended
}

func newEncoder(out io.Writer, fl Flusher, enc Encoding, flushBytes int, buf []byte) encoder {
	e := encoder{out: out, fl: fl, enc: enc, flushBytes: flushBytes, buf: buf[:0]}
	if enc == Binary {
		e.buf = append(e.buf, 'V')
	}
	return e
}

// open starts the next JSONArray element: the document prologue before
// the first violation, a separator before every later one.
func (e *encoder) open() {
	if e.enc != JSONArray {
		return
	}
	if !e.started {
		e.buf = append(e.buf, `{"violations":[`...)
		e.started = true
	} else {
		e.buf = append(e.buf, ',')
	}
}

// violation appends one engine violation.
func (e *encoder) violation(v *detect.Violation) {
	e.open()
	switch e.enc {
	case Binary:
		e.buf = appendBinaryViolation(e.buf, *v)
	case JSONArray:
		e.buf = appendJSONViolation(e.buf, v)
	default:
		e.buf = append(appendJSONViolation(e.buf, v), '\n')
	}
	e.count++
}

// wire appends one already-decoded wire violation.
func (e *encoder) wire(v *Violation) {
	e.open()
	switch e.enc {
	case Binary:
		e.buf = appendBinaryWire(e.buf, v)
	case JSONArray:
		e.buf = appendJSONWire(e.buf, v)
	default:
		e.buf = append(appendJSONWire(e.buf, v), '\n')
	}
	e.count++
}

// due reports whether the buffer should be flushed now. The first
// violation is flushed eagerly, so first-violation latency stays one
// detection group rather than one fill of the buffer; after that, size
// governs.
func (e *encoder) due() bool {
	return e.count == 1 || e.buffered() >= e.flushBytes
}

// buffered is the number of payload bytes awaiting a flush.
func (e *encoder) buffered() int {
	if e.enc == Binary {
		return len(e.buf) - 1 // the standing 'V' tag is not payload
	}
	return len(e.buf)
}

// flush sends the buffered payload to the client: as one WAL-framed 'V'
// batch for Binary, as raw bytes otherwise.
func (e *encoder) flush() error {
	if e.buffered() <= 0 {
		return nil
	}
	var err error
	if e.enc == Binary {
		_, err = wal.AppendFrame(e.out, e.buf)
		e.buf = append(e.buf[:0], 'V')
	} else {
		_, err = e.out.Write(e.buf)
		e.buf = e.buf[:0]
	}
	if err != nil {
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

// terminal flushes what remains and writes the terminal record: the
// trailer on a clean end (endErr empty), the error record otherwise.
func (e *encoder) terminal(endErr string) error {
	var err error
	if e.enc == Binary {
		if err := e.flush(); err != nil {
			return err
		}
		e.buf = appendTerminal(e.buf[:0], Binary, endErr, e.count, false)
		_, err = wal.AppendFrame(e.out, e.buf)
	} else {
		e.buf = appendTerminal(e.buf, e.enc, endErr, e.count, e.started)
		_, err = e.out.Write(e.buf)
	}
	e.buf = e.buf[:0]
	if err != nil {
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

// appendTerminal appends an encoding's terminal record for a stream of
// count violations that ends cleanly (endErr empty) or with the error
// endErr:
//
//   - NDJSON: the line {"done":true,"count":N} or {"error":"..."};
//   - JSONArray: the document's close, ],"done":true,"count":N} or
//     ],"error":"..."} plus a newline — the whole {"violations":[] document
//     when no violation started it;
//   - Binary: the frame payload 'Z' + uvarint count, or 'E' + the message
//     cut to fit one frame.
func appendTerminal(dst []byte, enc Encoding, endErr string, count int64, started bool) []byte {
	switch enc {
	case Binary:
		if endErr != "" {
			if len(endErr) > wal.MaxRecord-1 {
				endErr = endErr[:wal.MaxRecord-1]
			}
			return append(append(dst, 'E'), endErr...)
		}
		return binary.AppendUvarint(append(dst, 'Z'), uint64(count))
	case JSONArray:
		if !started {
			dst = append(dst, `{"violations":[`...)
		}
		dst = append(dst, "],"...)
	default:
		dst = append(dst, '{')
	}
	if endErr != "" {
		dst = appendJSONString(append(dst, `"error":`...), endErr)
	} else {
		dst = strconv.AppendInt(append(dst, `"done":true,"count":`...), count, 10)
	}
	return append(dst, "}\n"...)
}
