package engine

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"vprofile/internal/trace"
)

// StreamSource adapts any capture byte stream — a file, a TCP or unix
// socket connection, a reassembled datagram stream — into the record
// source a Session replays. It is the contract change that turns
// batch replay into live ingestion: the session no longer opens a
// file itself, it consumes whatever stream is attached, indefinitely,
// until the stream ends or Stop asks for a drain.
//
// StreamSource implements pipeline.Source, so the zero-allocation
// batched hot path is identical for a socket feed and a file replay —
// backpressure falls out of the blocking Read: when the pipeline is
// saturated the source simply reads the transport slower.
type StreamSource struct {
	name   string
	rd     *trace.Reader
	closer io.Closer
	sr     *stopReader
	gaps   func() trace.GapStats
}

// readDeadliner is the optional transport hook a drain uses to
// unblock a pending Read: net.Conn, *trace.DatagramReader and
// *os.File all provide it.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// stopReader wraps the transport under the capture reader so a drain
// can end the stream without tearing down the connection mid-read.
// Stop sets a flag and fires an immediate read deadline; the blocked
// Read returns its deadline error, which the wrapper rewrites to
// io.EOF. Where that EOF lands decides the drain's verdict: between
// records it is a clean end of stream, inside a record it surfaces as
// ErrUnexpectedEOF → ErrCorrupt → AbortError — an honest "this
// session did not finish cleanly".
type stopReader struct {
	r        io.Reader
	deadline readDeadliner
	stopped  atomic.Bool
}

func (sr *stopReader) Read(p []byte) (int, error) {
	if sr.stopped.Load() {
		return 0, io.EOF
	}
	n, err := sr.r.Read(p)
	if err != nil && sr.stopped.Load() {
		return n, io.EOF
	}
	return n, err
}

func (sr *stopReader) stop() {
	sr.stopped.Store(true)
	if sr.deadline != nil {
		// A deadline in the past unblocks a Read currently parked in
		// the transport.
		_ = sr.deadline.SetReadDeadline(time.Unix(0, 1))
	}
}

// NewStreamSource reads the capture header off rc and returns a
// source streaming records from it. It blocks until the header
// arrives (or rc fails). The source owns rc: Close closes it. When rc
// supports read deadlines (net.Conn, *trace.DatagramReader), Stop can
// interrupt a blocked read; otherwise Stop takes effect at the next
// record boundary.
func NewStreamSource(name string, rc io.ReadCloser) (*StreamSource, error) {
	sr := &stopReader{r: rc}
	if d, ok := rc.(readDeadliner); ok {
		sr.deadline = d
	}
	rd, err := trace.OpenReader(sr)
	if err != nil {
		rc.Close()
		return nil, fmt.Errorf("stream %s: %w", name, err)
	}
	return &StreamSource{name: name, rd: rd, closer: rc, sr: sr}, nil
}

// OpenCaptureSource opens a capture file (gzip transparently) as a
// stream source — the batch-replay case expressed through the same
// abstraction.
func OpenCaptureSource(path string) (*StreamSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewStreamSource(path, f)
	if err != nil {
		return nil, fmt.Errorf("open capture: %w", err)
	}
	return src, nil
}

// Name identifies the stream (a file path, or a peer description for
// socket feeds).
func (s *StreamSource) Name() string { return s.name }

// Header returns the capture header read at attach time.
func (s *StreamSource) Header() trace.Header { return s.rd.Header() }

// EnableRecovery switches the underlying reader into
// corruption-tolerant mode (see trace.Reader.EnableRecovery).
func (s *StreamSource) EnableRecovery() { s.rd.EnableRecovery() }

// SetMetrics forwards reader instrumentation.
func (s *StreamSource) SetMetrics(m *trace.Metrics) { s.rd.SetMetrics(m) }

// Corruptions snapshots the recovered-corruption reports; safe to
// call mid-stream from another goroutine.
func (s *StreamSource) Corruptions() []trace.RecoveredCorruption { return s.rd.Corruptions() }

// SetGapStats attaches a datagram-loss accountant (for UDP feeds);
// Gaps then reports it.
func (s *StreamSource) SetGapStats(fn func() trace.GapStats) { s.gaps = fn }

// Gaps returns the datagram sequence-gap accounting, or nil for
// lossless transports.
func (s *StreamSource) Gaps() *trace.GapStats {
	if s.gaps == nil {
		return nil
	}
	g := s.gaps()
	return &g
}

// Stop asks the stream to end: the next record boundary reads as
// io.EOF, and a read blocked in the transport is interrupted via its
// read deadline. The replay then drains normally — pipeline flush,
// summary, event-log close — exactly as if the capture had ended.
func (s *StreamSource) Stop() { s.sr.stop() }

// Close releases the transport and returns the reader's pooled read
// buffer. It must not run while a read is in flight; a session closes
// its source only after its replay has returned. A second Close
// closes the transport again but returns the buffer only once.
func (s *StreamSource) Close() error {
	err := s.closer.Close()
	s.rd.Release()
	return err
}

// Buffered implements pipeline.Source: the bytes the reader holds
// already read off the transport. Zero means the next record has not
// arrived yet (as far as the reader knows), so the pipeline ships the
// verdicts it has in hand before reading on.
func (s *StreamSource) Buffered() int { return s.rd.Buffered() }

// NextRawInto implements pipeline.Source: it refills rec with the next
// record, or returns io.EOF once the stream ends or Stop was called.
func (s *StreamSource) NextRawInto(rec *trace.RawRecord) error {
	if s.sr.stopped.Load() {
		return io.EOF
	}
	return s.rd.NextRawInto(rec)
}
