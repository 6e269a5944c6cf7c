package engine_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
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

// TestAbortStopsLiveSource aborts live sessions whose peer stays
// connected and silent after sending part of a capture. An aborted
// replay must stop its source and return; a reader left blocked in the
// transport read would hold Run until the peer sent again or hung up.
// In the first two cases the peer sends the header and five records
// and the sink fails at the third verdict: at the default batch bound
// the five records are one batch, scored and delivered on the reader;
// at a bound of two, the failing record's batch is full with more
// buffered, so a pool worker scores it and the replay's delivery
// goroutine delivers it while the reader reads on. In the third the
// peer stops in the middle of the sixth record, so the reader blocks
// inside a record with five in hand and the stall watchdog has to
// abort the replay.
func TestAbortStopsLiveSource(t *testing.T) {
	m := sharedModel(t)
	header, records := splitCapture(t, buildCapture(t, 207, 40, 5))
	five := bytes.Join(append([][]byte{header}, records[:5]...), nil)
	boom := errors.New("sink failed")
	for _, tc := range []struct {
		name   string
		feed   []byte
		opts   []engine.Option
		failAt int
		want   error
	}{
		{"reader", five, nil, 3, boom},
		{"worker", five, []engine.Option{engine.BatchBound(2)}, 3, boom},
		{"stall", append(five, records[5][:len(records[5])/2]...),
			[]engine.Option{engine.WithStallTimeout(200 * time.Millisecond)}, 0, pipeline.ErrStalled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// An os.Pipe has read deadlines, like a socket.
			pr, pw, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer pw.Close()
			if _, err := pw.Write(tc.feed); err != nil {
				t.Fatal(err)
			}
			src, err := engine.NewStreamSource("pipe", pr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				delivered := 0
				opts := append([]engine.Option{engine.WithSource(src), engine.WithModel(m)}, tc.opts...)
				_, err := engine.NewSession("", opts...).Run(func(engine.Result) error {
					delivered++
					if delivered == tc.failAt {
						return boom
					}
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("aborted session still blocked reading its silent live feed")
			}
		})
	}
}

// TestSlowSinkKeepsPoolShared runs two buses of one fleet on a
// one-worker pool. Bus a's sink blocks on its first verdict until bus
// b's replay has returned. Bus b replays a capture file, so nearly
// every batch it cuts is full and goes to the pool's one worker. b must
// still finish with every verdict and no error, its stall watchdog
// quiet: a sink runs on its own replay's goroutines and never holds a
// worker the other buses share.
func TestSlowSinkKeepsPoolShared(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 211, 300, 50))
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), buildCapture(t, 212, 700, 100))
	want := len(sequentialRef(t, pb, m))

	fleet, err := engine.NewFleet(nil, engine.WithModel(m), engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	attach := func(bus, path string, opts ...engine.Option) *engine.Session {
		src, err := engine.OpenCaptureSource(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := fleet.Attach(bus, src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := attach("a", pa)
	b := attach("b", pb, engine.WithStallTimeout(200*time.Millisecond))

	blocked, bDone := make(chan struct{}), make(chan struct{})
	aErr := make(chan error, 1)
	go func() {
		first := true
		_, err := a.Run(func(engine.Result) error {
			if first {
				first = false
				close(blocked)
				select {
				case <-bDone:
				case <-time.After(10 * time.Second):
					return errors.New("bus b never finished while bus a's sink was blocked")
				}
			}
			return nil
		})
		aErr <- err
	}()
	<-blocked
	n := 0
	_, err = b.Run(func(engine.Result) error {
		n++
		return nil
	})
	close(bDone)
	if err != nil {
		t.Fatalf("bus b failed while bus a's sink was blocked: %v", err)
	}
	if n != want {
		t.Fatalf("bus b delivered %d of %d verdicts", n, want)
	}
	if err := <-aErr; err != nil {
		t.Fatal(err)
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
