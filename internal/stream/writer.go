package stream

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cind/internal/detect"
)

// Flusher is the subset of http.Flusher the Writer drives; nil disables
// flushing (plain buffers in tests and benchmarks).
type Flusher interface{ Flush() }

// Options tunes the Writer's batching and flush policy. The zero value
// selects the defaults below.
type Options struct {
	// FlushBytes flushes the encode buffer to the client once it holds this
	// many bytes.
	FlushBytes int
	// FlushInterval flushes buffered bytes this long after the first one
	// arrived, bounding how stale a partially-filled buffer may get on a
	// slow violation stream.
	FlushInterval time.Duration
	// BatchSize is the producer micro-batch: Send hands violations to the
	// encoder goroutine in groups of this size, so the detection hot loop
	// pays one mutex handoff per batch, not per violation.
	BatchSize int
	// PushInterval bounds how long a partially filled micro-batch may wait
	// for the producer. The encoder goroutine runs one timer of this
	// length, started with the stream and restarted on every batch it
	// receives; when it fires it raises a flag, and the next Send pushes
	// whatever the micro-batch holds. Send itself never reads the clock,
	// and a stream with no batches in flight does not tick.
	PushInterval time.Duration
	// BeforeTerminal, when set, is called once with the number of
	// violations written, on the encoder goroutine, just before the
	// terminal record is written (also when a write failure suppresses
	// it). Accounting done here is complete by the time a client has read
	// the trailer, which deferred code after Close cannot promise.
	BeforeTerminal func(count int64)
}

// Defaults: flush at 32KiB or 50ms, whichever first; micro-batches of 256,
// a partial one pushed by the first Send 5ms after the last handoff.
const (
	DefaultFlushBytes    = 32 << 10
	DefaultFlushInterval = 50 * time.Millisecond
	defaultBatchSize     = 256
	defaultPushInterval  = 5 * time.Millisecond
)

// maxPooledBuf caps the encode buffers returned to the pool, so one stream
// with a pathological single violation cannot pin a huge buffer forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBatch caps the micro-batch buffers a Writer allocates up front
// and keeps for reuse, in violations; a larger BatchSize grows the buffer
// by append instead.
const maxPooledBatch = 4096

// batchSet is one stream's spare micro-batch buffers. When a stream ends,
// its encoder goroutine hands the whole set to batchPool, and the next
// Writer starts from it, so a stream allocates no batch buffers in the
// steady state.
type batchSet struct{ bufs [][]detect.Violation }

var batchPool = sync.Pool{New: func() any { return new(batchSet) }}

// Writer streams violations to out in one negotiated encoding, moving all
// encoding and flushing off the caller's loop: Send appends to a
// micro-batch and hands full batches to a per-stream encoder goroutine; the
// goroutine encodes, flushes at FlushBytes or FlushInterval (whichever
// first, with the very first violation flushed eagerly so first-violation
// latency stays one detection group), and writes the encoding's terminal
// record when the stream closes.
//
// Send and Close/CloseError must be called from one goroutine (the
// iterator loop). Close and CloseError are idempotent; the first call wins.
type Writer struct {
	out  io.Writer
	fl   Flusher
	enc  Encoding
	opts Options

	// Producer-side state, guarded by the single-caller contract.
	micro    []detect.Violation
	okCached bool

	// pushDue is raised by the encoder goroutine when PushInterval has
	// passed since the last batch it received, and lowered by push.
	pushDue atomic.Bool

	mu      sync.Mutex
	full    sync.Cond            // producer waits here while pending is at capacity
	pending [][]detect.Violation // full micro-batches awaiting encode
	spare   [][]detect.Violation // spent batch buffers for the producer to reuse
	set     *batchSet            // where spare came from; returned to batchPool at the end
	closed  bool
	endErr  string
	werr    error

	wake chan struct{}
	done chan struct{}

	count int64 // violations written; read via Count after Close
}

// NewWriter starts a stream writer over out. fl may be nil; opts zero
// fields take the defaults.
func NewWriter(out io.Writer, fl Flusher, enc Encoding, opts Options) *Writer {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = DefaultFlushBytes
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.PushInterval <= 0 {
		opts.PushInterval = defaultPushInterval
	}
	set := batchPool.Get().(*batchSet)
	w := &Writer{
		out: out, fl: fl, enc: enc, opts: opts,
		spare:    set.bufs,
		set:      set,
		okCached: true,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	set.bufs = nil
	w.micro = w.newBatch()
	w.full.L = &w.mu
	go w.run()
	return w
}

// Send queues one violation. It returns false once the underlying writer
// has failed (the client is gone) — the caller should stop iterating. The
// report is conservative by up to one micro-batch: a failure is observed at
// the next batch handoff, which BatchSize or PushInterval bounds.
func (w *Writer) Send(v detect.Violation) bool {
	w.micro = append(w.micro, v)
	if len(w.micro) >= w.opts.BatchSize || w.pushDue.Load() {
		return w.push()
	}
	return w.okCached
}

// maxPendingBatches bounds the encode backlog: once the encoder is this
// many micro-batches behind, push blocks until it catches up. This is the
// writer's backpressure — a fast engine cannot buffer an entire stream
// ahead of a slow client, memory per stream stays bounded, and
// cancellation (Drain, disconnect) still reaches a stream mid-flight
// instead of finding it already fully buffered.
const maxPendingBatches = 4

// push hands the micro-batch slice itself to the encoder goroutine — no
// per-violation copy — takes a recycled buffer for the next batch, and
// samples writer health. It blocks while the encode backlog is full.
func (w *Writer) push() bool {
	w.pushDue.Store(false)
	w.mu.Lock()
	for len(w.pending) >= maxPendingBatches && !w.closed && w.werr == nil {
		w.full.Wait()
	}
	if len(w.micro) > 0 && !w.closed {
		w.pending = append(w.pending, w.micro)
		w.micro = w.newBatch()
	}
	ok := w.werr == nil && !w.closed
	w.mu.Unlock()
	w.okCached = ok
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return ok
}

// newBatch takes an empty micro-batch buffer from spare, or allocates one
// when none is left. The caller holds mu, or is NewWriter.
func (w *Writer) newBatch() []detect.Violation {
	if n := len(w.spare); n > 0 {
		b := w.spare[n-1]
		w.spare = w.spare[:n-1]
		return b[:0]
	}
	return make([]detect.Violation, 0, min(w.opts.BatchSize, maxPooledBatch))
}

// Close pushes any buffered violations, writes the encoding's clean
// end-of-stream trailer, flushes, and waits for the encoder goroutine to
// exit. It returns the first write error the stream hit, if any.
func (w *Writer) Close() error { return w.finish("") }

// CloseError ends the stream with the encoding's terminal error record —
// the signal that the stream is truncated by cancellation, not complete.
func (w *Writer) CloseError(msg string) error {
	if msg == "" {
		msg = "stream aborted"
	}
	return w.finish(msg)
}

// Count returns the number of violations written; valid after Close or
// CloseError has returned.
func (w *Writer) Count() int64 { return w.count }

func (w *Writer) finish(endErr string) error {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.endErr = endErr
		if len(w.micro) > 0 {
			w.pending = append(w.pending, w.micro)
			w.micro = nil
		}
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.done
	w.okCached = false
	w.mu.Lock()
	err := w.werr
	w.mu.Unlock()
	return err
}

func (w *Writer) setWerr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
	w.full.Broadcast() // a blocked producer must see the failure, not wait
}

// run is the encoder goroutine: drain pending batches, encode, flush by
// size or deadline, raise the push deadline, emit the terminal record on
// close.
func (w *Writer) run() {
	defer close(w.done)
	bp := bufPool.Get().(*[]byte)
	e := newEncoder(w.out, w.fl, w.enc, w.opts.FlushBytes, *bp)
	defer func() {
		if cap(e.buf) <= maxPooledBuf {
			*bp = e.buf[:0]
			bufPool.Put(bp)
		}
	}()
	var timer *time.Timer
	var flushC <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	// The push deadline runs from the stream's start, and then from each
	// batch received: PushInterval after the last handoff, the producer's
	// next Send pushes.
	pushT := time.NewTimer(w.opts.PushInterval)
	defer pushT.Stop()
	failed := false
	var batches [][]detect.Violation
	for {
		// Swap pending with the spent slice of the last round, so the
		// backlog list itself is not reallocated every round.
		w.mu.Lock()
		batches, w.pending = w.pending, batches[:0]
		closed := w.closed
		endErr := w.endErr
		w.mu.Unlock()
		if len(batches) > 0 {
			w.full.Broadcast()
			pushT.Reset(w.opts.PushInterval)
		}
		for _, batch := range batches {
			for i := range batch {
				if failed {
					break
				}
				e.violation(&batch[i])
				if e.due() {
					failed = w.failed(e.flush())
					flushC = nil
				}
			}
		}
		if len(batches) > 0 {
			// Recycle the spent batch buffers, as many as a stream can
			// have in flight at once (the micro-batch, a full backlog and
			// a backlog being encoded), so a steady stream allocates none.
			w.mu.Lock()
			for i, b := range batches {
				if len(w.spare) <= 2*maxPendingBatches && cap(b) > 0 && cap(b) <= maxPooledBatch {
					w.spare = append(w.spare, b[:0])
				}
				batches[i] = nil
			}
			w.mu.Unlock()
		}
		if closed {
			// The producer is done with the stream: every buffer is back
			// in spare, ready for the next stream.
			w.mu.Lock()
			w.set.bufs, w.spare = w.spare, nil
			w.mu.Unlock()
			batchPool.Put(w.set)
			w.count = e.count
			if w.opts.BeforeTerminal != nil {
				w.opts.BeforeTerminal(e.count)
			}
			if !failed {
				w.failed(e.terminal(endErr))
			}
			return
		}
		if !failed && e.buffered() > 0 && flushC == nil {
			if timer == nil {
				timer = time.NewTimer(w.opts.FlushInterval)
			} else {
				timer.Reset(w.opts.FlushInterval)
			}
			flushC = timer.C
		}
		select {
		case <-w.wake:
		case <-pushT.C:
			w.pushDue.Store(true)
		case <-flushC:
			flushC = nil
			if !failed {
				failed = w.failed(e.flush())
			}
		}
	}
}

// failed records a write error, if any, and reports whether there was one.
func (w *Writer) failed(err error) bool {
	if err != nil {
		w.setWerr(err)
	}
	return err != nil
}
