package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
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
// order, with nothing dropped. The flush=random shapes cut partial
// batches wherever a seeded source reports nothing buffered, the way
// a live feed that runs dry at arbitrary record boundaries does.
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

	type shape struct {
		batch  int
		random bool
	}
	var shapes []shape
	for _, batch := range []int{1, 3, pipeline.DefaultBatch} {
		shapes = append(shapes, shape{batch: batch})
	}
	shapes = append(shapes, shape{batch: 3, random: true}, shape{batch: pipeline.DefaultBatch, random: true})
	for _, workers := range []int{1, 4, 8} {
		for _, sh := range shapes {
			batch := sh.batch
			name := fmt.Sprintf("workers=%d/batch=%d", workers, batch)
			if sh.random {
				name += "/flush=random"
			}
			t.Run(name, func(t *testing.T) {
				var rd pipeline.Source = newReaderFor(t, capture)
				if sh.random {
					rd = &drySource{Source: rd, rng: rand.New(rand.NewSource(int64(workers*100 + batch)))}
				}
				mon := newMonitor(t, v, model)
				p, err := pipeline.New(mon, pipeline.Config{Pool: newPool(t, workers), Batch: batch})
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

	pool := newPool(t, 4)

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
	p, err := pipeline.New(mon, pipeline.Config{Pool: newPool(t, 4), Batch: 8})
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

// drySource reports nothing buffered at seeded random record
// boundaries, about one in three, so the reader ships partial batches
// at arbitrary cut points.
type drySource struct {
	pipeline.Source
	rng *rand.Rand
}

func (s *drySource) Buffered() int {
	if s.rng.Intn(3) == 0 {
		return 0
	}
	return 1
}

// fixedSource reports the same buffered count at every record boundary.
type fixedSource struct {
	pipeline.Source
	buffered int
}

func (s fixedSource) Buffered() int { return s.buffered }

// cutSource reports nothing buffered after the records whose 1-based
// count is in dry, and bytes buffered everywhere else.
type cutSource struct {
	pipeline.Source
	read int
	dry  map[int]bool
}

func (s *cutSource) NextRawInto(rec *trace.RawRecord) error {
	err := s.Source.NextRawInto(rec)
	if err == nil {
		s.read++
	}
	return err
}

func (s *cutSource) Buffered() int {
	if s.dry[s.read] {
		return 0
	}
	return 1
}

// TestBatchCutsFollowBuffered pins when the reader ships a batch: when
// it is full, when the source has nothing buffered, and at the end of
// the stream — never otherwise. A source that always has bytes
// buffered (a file, a saturated socket) ships full batches plus the
// end-of-stream tail; one that runs dry after chosen records ships a
// batch at each of them; one that is always dry ships every record on
// its own.
func TestBatchCutsFollowBuffered(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	total := 0
	if _, err := pipeline.Sequential(newReaderFor(t, capture), newMonitor(t, v, model), func(pipeline.Result) error {
		total++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const batch = 16
	if total < 3*batch || total%batch == 0 {
		t.Fatalf("capture of %d records cannot show full batches and a ragged tail", total)
	}

	dry := map[int]bool{1: true, 5: true, 6: true, 40: true}
	cases := []struct {
		name string
		src  func() pipeline.Source
		want []int
	}{
		{"buffered", func() pipeline.Source { return fixedSource{newReaderFor(t, capture), 1} }, nil},
		{"dry", func() pipeline.Source { return fixedSource{newReaderFor(t, capture), 0} }, nil},
		{"cuts", func() pipeline.Source { return &cutSource{Source: newReaderFor(t, capture), dry: dry} }, nil},
	}
	for n := total; n > 0; n -= batch {
		cases[0].want = append(cases[0].want, min(n, batch))
	}
	for range total {
		cases[1].want = append(cases[1].want, 1)
	}
	// 1 | 2..5 | 6 | 7..22 | 23..38 | 39..40 | then full batches.
	cases[2].want = []int{1, 4, 1, 16, 16, 2}
	for n := total - 40; n > 0; n -= batch {
		cases[2].want = append(cases[2].want, min(n, batch))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delivered := 0
			sizes, err := pipeline.RunTapped(newMonitor(t, v, model), batch, tc.src(), func(r pipeline.Result) error {
				if r.Index != delivered {
					t.Fatalf("result %d arrived out of order (expected %d)", r.Index, delivered)
				}
				delivered++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if delivered != total {
				t.Fatalf("delivered %d of %d records", delivered, total)
			}
			if !slices.Equal(sizes, tc.want) {
				t.Fatalf("batch sizes %v, want %v", sizes, tc.want)
			}
		})
	}
}
