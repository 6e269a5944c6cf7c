package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// TestBatchedPipelineMatchesSequential is the determinism contract of
// the batched transport: for every worker count × batch size — batch 1
// (per-record degenerate case), a ragged size that never divides the
// record count evenly, and the default — with buffer pooling on, the
// verdict stream must be bit-identical to sequential Process, in
// order, with nothing dropped.
func TestBatchedPipelineMatchesSequential(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)

	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	seqMon := newMonitor(t, v, model)
	var want []ids.CompositeResult
	anomalies := 0
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
		r := seqMon.Process(frame, rec.Trace, rec.TimeSec)
		if r.Anomalous() {
			anomalies++
		}
		want = append(want, r)
	}
	if anomalies == 0 {
		t.Fatal("capture produced no anomalies; the comparison proves nothing")
	}

	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 3, pipeline.DefaultBatch} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				rd, err := trace.NewReader(bytes.NewReader(capture))
				if err != nil {
					t.Fatal(err)
				}
				mon := newMonitor(t, v, model)
				p, err := pipeline.New(mon, pipeline.Config{Workers: workers, Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				idx := 0
				err = p.Run(rd, func(r pipeline.Result) error {
					if r.Index != idx {
						t.Fatalf("result %d arrived out of order (expected %d)", r.Index, idx)
					}
					if idx >= len(want) {
						t.Fatalf("extra result %d", idx)
					}
					if d := diffResults(want[idx], r.Verdict); d != "" {
						t.Fatalf("record %d diverges from sequential: %s", idx, d)
					}
					idx++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if idx != len(want) {
					t.Fatalf("pipeline delivered %d of %d records", idx, len(want))
				}
				if n := p.Stats().BuffersOutstanding; n != 0 {
					t.Fatalf("%d pooled buffers still outstanding after a clean run", n)
				}
			})
		}
	}
}

// TestAbandonedBatchReleasesBuffers audits the abandon path under
// batching on a shared pool: a sink failure mid-replay abandons
// batches at every stage — queued, in a worker, parked on the out
// channel, and held in the reorder map — and none of them may leak a
// pooled buffer or strand the shared pool's worker slots. The second
// replay over the same pool is the stranded-slot check: it only
// completes if every slot came back.
func TestAbandonedBatchReleasesBuffers(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)

	pool := pipeline.NewPool(4)
	defer pool.Close()

	sinkErr := errors.New("sink exploded")
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	p, err := pipeline.New(mon, pipeline.Config{Pool: pool, Batch: 7})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	err = p.Run(rd, func(r pipeline.Result) error {
		delivered++
		if delivered == 10 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if delivered != 10 {
		t.Fatalf("sink saw %d results, want 10", delivered)
	}
	if n := p.Stats().BuffersOutstanding; n != 0 {
		t.Fatalf("%d pooled buffers leaked by the abandoned replay", n)
	}

	// Stranded-slot check: the same shared pool must still have all
	// its workers, or this replay wedges (watchdogless, it would hang
	// the test run — loudly).
	rd2, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon2 := newMonitor(t, v, model)
	p2, err := pipeline.New(mon2, pipeline.Config{Pool: pool, Batch: 7})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := p2.Run(rd2, func(pipeline.Result) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("second replay on the shared pool delivered nothing")
	}
	if n := p2.Stats().BuffersOutstanding; n != 0 {
		t.Fatalf("%d pooled buffers outstanding after the clean second replay", n)
	}
}

// TestSourceErrorFlushesPrefixUnderBatching pins the source-error
// contract with batching on: every record read before the error —
// including the partial batch in the reader's hand — reaches the sink,
// in order, before the error surfaces, and nothing leaks.
func TestSourceErrorFlushesPrefixUnderBatching(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)

	srcErr := errors.New("source corrupted")
	src := &errorSource{src: newReaderFor(t, capture), n: 25, err: srcErr}
	mon := newMonitor(t, v, model)
	p, err := pipeline.New(mon, pipeline.Config{Workers: 4, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	err = p.Run(src, func(r pipeline.Result) error {
		if r.Index != idx {
			t.Fatalf("result %d out of order (expected %d)", r.Index, idx)
		}
		idx++
		return nil
	})
	if !errors.Is(err, srcErr) {
		t.Fatalf("err = %v, want the source error", err)
	}
	if idx != 25 {
		t.Fatalf("sink saw %d records before the error, want the full 25-record prefix", idx)
	}
	if n := p.Stats().BuffersOutstanding; n != 0 {
		t.Fatalf("%d pooled buffers leaked on the source-error path", n)
	}
}

func newReaderFor(t *testing.T, capture []byte) *trace.Reader {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}
