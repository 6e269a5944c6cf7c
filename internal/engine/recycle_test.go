package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// streamSession builds a session streaming data through a StreamSource,
// the path every vprofiled feed takes.
func streamSession(t testing.TB, data []byte, opts ...engine.Option) *engine.Session {
	t.Helper()
	src, err := engine.NewStreamSource("stream", io.NopCloser(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewSession("", append([]engine.Option{engine.WithSource(src)}, opts...)...)
}

// maxSteadyAllocsPerFrame bounds the whole process's heap allocations
// per frame on an untraced stream session in steady state. Record
// buffers, batches and frame headers are all recycled, so what remains
// is per-batch pool bookkeeping (about 0.3 measured); a pipeline that
// allocates a raw record and a float64 trace per frame sits near 13.
const maxSteadyAllocsPerFrame = 1

// TestSessionSteadyStateAllocs is the allocation regression gate of
// the daemon hot path: after one warm-up session has filled the shared
// buffer pools, a second session over a StreamSource must stay under
// maxSteadyAllocsPerFrame, counted from the sink across everything the
// process allocates mid-stream. The count is the median over several
// consecutive windows: a GC that lands in one window empties the
// pools and inflates that window alone.
func TestSessionSteadyStateAllocs(t *testing.T) {
	checkSteadyStateAllocs(t, func(data []byte) io.Reader { return bytes.NewReader(data) })
}

// TestPacedSessionSteadyStateAllocs is the same gate on a paced feed:
// the transport hands over one record per read, so the reader finds
// nothing buffered after every record and each batch is an idle flush
// of one. Shipping a partial batch must cost no more than a full one.
func TestPacedSessionSteadyStateAllocs(t *testing.T) {
	checkSteadyStateAllocs(t, func(data []byte) io.Reader {
		header, records := splitCapture(t, data)
		return &pacedReader{chunks: append([][]byte{header}, records...)}
	})
}

// pacedReader serves its chunks one per Read, as a feed that writes
// one record at a time and is read as fast as it writes.
type pacedReader struct{ chunks [][]byte }

func (r *pacedReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// checkSteadyStateAllocs runs a warm-up session and a measured one
// over the transport feed builds, and holds the measured session's
// median allocations per frame to maxSteadyAllocsPerFrame.
func checkSteadyStateAllocs(t *testing.T, feed func([]byte) io.Reader) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	m := sharedModel(t)
	data := buildCapture(t, 301, 1500, 50)
	const from, to, windows = 500, 1400, 5
	const width = (to - from) / windows

	run := func(measure bool) []float64 {
		tally := engine.NewTally()
		var marks [windows + 1]runtime.MemStats
		src, err := engine.NewStreamSource("stream", io.NopCloser(feed(data)))
		if err != nil {
			t.Fatal(err)
		}
		sess := engine.NewSession("", engine.WithSource(src), engine.WithModel(m), engine.WithWorkers(2))
		_, err = sess.Run(func(res engine.Result) error {
			tally.Observe(res.Result)
			if i := res.Index - from; measure && i >= 0 && i%width == 0 && i/width <= windows {
				runtime.ReadMemStats(&marks[i/width])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		perFrame := make([]float64, windows)
		for w := range perFrame {
			perFrame[w] = float64(marks[w+1].Mallocs-marks[w].Mallocs) / width
		}
		return perFrame
	}
	run(false)
	perWindow := run(true)
	sorted := slices.Clone(perWindow)
	slices.Sort(sorted)
	got := sorted[windows/2]
	if got > maxSteadyAllocsPerFrame {
		t.Fatalf("stream session allocates %.2f times per frame in steady state (median of windows %.2f), want <= %d", got, perWindow, maxSteadyAllocsPerFrame)
	}
	t.Logf("%.2f allocs/frame in steady state (median of windows %.2f)", got, perWindow)
}

// recordSum checksums (FNV-1a over whole values) the parts of a
// result the aliasing contract covers: the record's payload and the
// frame's payload.
func recordSum(r pipeline.Result) uint64 {
	sum := uint64(14695981039346656037)
	mix := func(v uint64) { sum = (sum ^ v) * 1099511628211 }
	for _, b := range r.Record.Data {
		mix(uint64(b))
	}
	for _, b := range r.Frame.Data {
		mix(uint64(b))
	}
	return sum
}

// TestSinkAliasingContract pins the Result aliasing contract on the
// daemon path: a stream session recycles its record buffers, so they
// must stay untouched for the whole sink call and may be reused the
// moment it returns. At every workers × batch shape, and on one traced
// shape (whose flight decisions must copy what they keep), each sink
// call checksums Record.Data and Frame.Data, yields, and checksums
// again — a buffer recycled mid-call changes the sum, and under -race
// the overlapping write is reported — and the sums must match a
// pipeline.Sequential reference, record for record. Every delivered
// Record.Trace must be empty: verdicts are scored from the packed
// codes, and no float64 trace is built for a Result.
//
// The sink then runs the in-tree consumers — Tally.Observe, which
// every session runs on its results before the sink, and
// VoltageEvent — with the drift and incident wrappers on, and finally
// scribbles over the record's payload: what recycling does to it next.
// A consumer that kept a pointer into the record would report
// scribbled data; the tallies and events must instead equal the
// reference's. (Scoreboard.Observe takes only the index and verdict,
// so it cannot keep record memory.)
func TestSinkAliasingContract(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 302, 500, 120)

	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header())})
	if err != nil {
		t.Fatal(err)
	}
	var wantSums []uint64
	wantTally := engine.NewTally()
	var wantEvents []obs.Event
	_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		if len(r.Record.Trace) != 0 {
			return fmt.Errorf("record %d: reference carries %d samples", r.Index, len(r.Record.Trace))
		}
		wantSums = append(wantSums, recordSum(r))
		wantEvents = append(wantEvents, wantTally.Observe(r)...)
		if r.Verdict.Voltage.Anomaly {
			wantEvents = append(wantEvents, engine.VoltageEvent(r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type shape struct {
		workers, batch int
		traced         bool
	}
	var shapes []shape
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 7, 64} {
			shapes = append(shapes, shape{workers, batch, false})
		}
	}
	shapes = append(shapes, shape{4, 7, true})
	for _, sh := range shapes {
		name := fmt.Sprintf("workers=%d/batch=%d", sh.workers, sh.batch)
		if sh.traced {
			name = "traced/" + name
		}
		t.Run(name, func(t *testing.T) {
			opts := []engine.Option{engine.WithModel(m),
				engine.WithWorkers(sh.workers), engine.BatchBound(sh.batch),
				engine.WithDrift(true), engine.WithIncidents(true)}
			if sh.traced {
				opts = append(opts, engine.WithFlightRecorder(t.TempDir(), 4))
			}
			tally := engine.NewTally()
			var events []obs.Event
			alarms := 0
			sess := streamSession(t, data, opts...)
			sum, err := sess.Run(func(res engine.Result) error {
				r := res.Result
				if r.Index >= len(wantSums) {
					return fmt.Errorf("extra result %d", r.Index)
				}
				if len(r.Record.Trace) != 0 {
					return fmt.Errorf("record %d carries %d samples", r.Index, len(r.Record.Trace))
				}
				got := recordSum(r)
				runtime.Gosched()
				if again := recordSum(r); again != got {
					return fmt.Errorf("record %d changed during its sink call", r.Index)
				}
				if got != wantSums[r.Index] {
					return fmt.Errorf("record %d: checksum %x, reference %x", r.Index, got, wantSums[r.Index])
				}
				events = append(events, tally.Observe(r)...)
				if r.Verdict.Voltage.Anomaly {
					events = append(events, engine.VoltageEvent(r))
				}
				if r.Verdict.Alarm() {
					alarms++
				}
				for i := range r.Record.Data {
					r.Record.Data[i] = 0xA5
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := int(sum.Stats.RecordsOut); n != len(wantSums) {
				t.Fatalf("delivered %d of %d records", n, len(wantSums))
			}
			if n := sum.Stats.BuffersOutstanding; n != 0 {
				t.Fatalf("%d pooled buffers outstanding after the run", n)
			}
			if alarms == 0 {
				t.Fatal("no alarms; the consumers were never exercised")
			}
			if got, want := tally.Table(), wantTally.Table(); got != want {
				t.Fatalf("tally diverges from the reference:\n%s\nwant:\n%s", got, want)
			}
			if sh.traced {
				// Traced events carry the frame's trace id; the untraced
				// reference has none.
				for i := range events {
					events[i].Trace = ""
				}
			}
			got, _ := json.Marshal(events)
			want, _ := json.Marshal(wantEvents)
			if !bytes.Equal(got, want) {
				t.Fatalf("events diverge from the reference:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
