package engine_test

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"vprofile/internal/engine"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// TestSessionSnapshotMidStream streams a capture through a pipe,
// pauses the feed halfway, and snapshots the live session from
// another goroutine — the daemon's status path. The snapshot must
// show progress mid-stream and settle to the final summary once the
// run completes.
func TestSessionSnapshotMidStream(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 201, 700, 250)

	pr, pw := io.Pipe()
	resume := make(chan struct{})
	go func() {
		half := len(data) / 2
		if _, err := pw.Write(data[:half]); err != nil {
			return
		}
		<-resume
		_, _ = pw.Write(data[half:])
		pw.Close()
	}()

	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession("",
		engine.WithSource(src),
		engine.WithModel(m),
		engine.WithQuarantine(true),
	)
	var frames atomic.Int64
	type runResult struct {
		sum engine.Summary
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		sum, err := sess.Run(func(res engine.Result) error {
			frames.Add(1)
			return nil
		})
		done <- runResult{sum, err}
	}()

	// The feed is stalled at the half-way mark, so a live snapshot
	// with partial progress is guaranteed to be observable.
	deadline := time.Now().Add(20 * time.Second)
	var mid engine.Summary
	for {
		mid = sess.Snapshot()
		if mid.Live && mid.Stats.RecordsOut > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed a live snapshot with progress: %+v", mid)
		}
		time.Sleep(time.Millisecond)
	}
	if mid.ModelVersion != 1 {
		t.Errorf("mid-stream model version = %d", mid.ModelVersion)
	}

	close(resume)
	r := <-done
	if r.err != nil {
		t.Fatalf("run failed: %v", r.err)
	}
	if mid.Stats.RecordsOut >= r.sum.Stats.RecordsOut {
		t.Errorf("mid-stream snapshot saw %d records, final %d — snapshot was not mid-stream",
			mid.Stats.RecordsOut, r.sum.Stats.RecordsOut)
	}
	if int64(r.sum.Stats.RecordsOut) != frames.Load() {
		t.Errorf("sink got %d results, stats say %d", frames.Load(), r.sum.Stats.RecordsOut)
	}

	// After completion the snapshot is the final summary, not live.
	final := sess.Snapshot()
	if final.Live {
		t.Error("completed session still reports live")
	}
	if final.Stats.RecordsOut != r.sum.Stats.RecordsOut ||
		final.DegradedSAs != r.sum.DegradedSAs ||
		final.ModelVersion != r.sum.ModelVersion {
		t.Errorf("final snapshot differs from the returned summary:\nsnap %+v\nsum  %+v", final, r.sum)
	}
	if r.sum.DegradedSAs == 0 {
		t.Error("attack capture with quarantine degraded no SAs")
	}
}

// TestStreamSourceStopBeforeRun: a session whose source is stopped
// before Run begins drains immediately with an empty summary instead
// of blocking on the feed.
func TestStreamSourceStopBeforeRun(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 201, 120, 10)
	pr, pw := io.Pipe()
	go func() {
		_, _ = pw.Write(data)
		// Feed stays open: only the Stop ends the session.
	}()
	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	src.Stop()
	sess := engine.NewSession("", engine.WithSource(src), engine.WithModel(m))
	sum, err := sess.Run(nil)
	if err != nil {
		t.Fatalf("stopped source aborted the run: %v", err)
	}
	if sum.Stats.RecordsOut != 0 {
		t.Fatalf("stopped source still replayed %d records", sum.Stats.RecordsOut)
	}
	pw.Close()
}

// splitCapture re-encodes a capture as its header bytes and one byte
// slice per record, so a test can feed a stream record by record.
func splitCapture(t *testing.T, data []byte) (header []byte, records [][]byte) {
	t.Helper()
	h, recs, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	header = bytes.Clone(buf.Bytes())
	for _, rec := range recs {
		buf.Reset()
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		records = append(records, bytes.Clone(buf.Bytes()))
	}
	return header, records
}

// TestLiveFeedVerdictPerRecord pins the live path's latency contract:
// a session at the default batch bound, fed one record per write over
// a pipe, delivers each record's verdict before the next record is
// written. The reader ships whatever it holds once the transport has
// nothing more buffered, so no verdict waits for a batch to fill.
func TestLiveFeedVerdictPerRecord(t *testing.T) {
	m := sharedModel(t)
	header, records := splitCapture(t, buildCapture(t, 203, 150, 30))
	if len(records) < 2*pipeline.DefaultBatch {
		t.Fatalf("%d records do not outlast two default batches", len(records))
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	go func() { _, _ = pw.Write(header) }()
	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(chan int, len(records))
	done := make(chan error, 1)
	go func() {
		_, err := engine.NewSession("", engine.WithSource(src), engine.WithModel(m)).Run(func(r engine.Result) error {
			verdicts <- r.Index
			return nil
		})
		done <- err
	}()

	for i, rec := range records {
		if _, err := pw.Write(rec); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-verdicts:
			if got != i {
				t.Fatalf("verdict %d arrived after record %d was written", got, i)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("record %d's verdict did not arrive before the next record was written", i)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamSourceCloseReturnsBufferOnce closes a source twice, then
// reads two sources opened afterwards record by record, alternating.
// Close returns the reader's pooled read buffer; returning it twice
// would hand one buffer to both sources, and each would read the
// other's bytes.
func TestStreamSourceCloseReturnsBufferOnce(t *testing.T) {
	captures := [][]byte{buildCapture(t, 204, 60, 5), buildCapture(t, 205, 60, 5)}
	open := func(data []byte) *engine.StreamSource {
		t.Helper()
		src, err := engine.NewStreamSource("mem", io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	var want [2][]trace.RawRecord
	for i, data := range captures {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			var raw trace.RawRecord
			if err := rd.NextRawInto(&raw); err != nil {
				break
			}
			want[i] = append(want[i], raw)
		}
	}

	closed := open(captures[0])
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	_ = closed.Close()
	srcs := []*engine.StreamSource{open(captures[0]), open(captures[1])}
	defer srcs[0].Close()
	defer srcs[1].Close()
	for k := 0; k < len(want[0]) || k < len(want[1]); k++ {
		for i, src := range srcs {
			if k >= len(want[i]) {
				continue
			}
			var raw trace.RawRecord
			if err := src.NextRawInto(&raw); err != nil {
				t.Fatalf("source %d record %d: %v", i, k, err)
			}
			w := want[i][k]
			if raw.FrameID != w.FrameID || raw.TimeSec != w.TimeSec || !bytes.Equal(raw.Data, w.Data) || !bytes.Equal(raw.Codes, w.Codes) {
				t.Fatalf("source %d record %d differs from its capture", i, k)
			}
		}
	}
}

// TestSinkErrorStopsLiveFeed fails a live session's sink at its third
// verdict while the peer keeps the pipe open and records keep coming,
// a millisecond apart like a bus's frames, so the workers wait idle
// for each one. The replay must stop reading and return the sink's
// error; a reader that kept shipping batches to idle workers would
// read the feed to its end and then wait on the open pipe forever.
func TestSinkErrorStopsLiveFeed(t *testing.T) {
	m := sharedModel(t)
	header, records := splitCapture(t, buildCapture(t, 206, 150, 30))

	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		if _, err := pw.Write(header); err != nil {
			return
		}
		for _, rec := range records {
			if _, err := pw.Write(rec); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
		// The peer stays connected, sending nothing more.
	}()
	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	done := make(chan error, 1)
	go func() {
		delivered := 0
		_, err := engine.NewSession("", engine.WithSource(src), engine.WithModel(m)).Run(func(engine.Result) error {
			delivered++
			if delivered == 3 {
				return boom
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("session kept reading the live feed after its sink failed")
	}
}

// closeRecorder is a capture stream that records whether it was
// closed.
type closeRecorder struct {
	io.Reader
	closed atomic.Bool
}

func (c *closeRecorder) Close() error {
	c.closed.Store(true)
	return nil
}

// TestSessionClosesSourceOnSetupFailure: a session owns a WithSource
// source, so a Run that fails before the replay starts still closes
// it — a session without a model, and a member whose fleet closed
// between Attach and Run.
func TestSessionClosesSourceOnSetupFailure(t *testing.T) {
	data := buildCapture(t, 205, 20, 5)
	newSource := func() (*engine.StreamSource, *closeRecorder) {
		rc := &closeRecorder{Reader: bytes.NewReader(data)}
		src, err := engine.NewStreamSource("recorded", rc)
		if err != nil {
			t.Fatal(err)
		}
		return src, rc
	}

	src, rc := newSource()
	if _, err := engine.NewSession("", engine.WithSource(src)).Run(nil); err == nil {
		t.Fatal("a session without a model ran")
	}
	if !rc.closed.Load() {
		t.Fatal("no-model session left its source open")
	}

	fleet, err := engine.NewFleet(nil, engine.WithModel(sharedModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	src, rc = newSource()
	sess, err := fleet.Attach("late", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err == nil {
		t.Fatal("a member ran on a closed fleet")
	}
	if !rc.closed.Load() {
		t.Fatal("member of a closed fleet left its source open")
	}
}
