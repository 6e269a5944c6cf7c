package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vprofile/internal/core"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// sequentialResults replays capture on the sequential reference path.
func sequentialResults(t *testing.T, v *vehicle.Vehicle, model *core.Model, capture []byte) []pipeline.Result {
	t.Helper()
	var want []pipeline.Result
	if _, err := pipeline.Sequential(newReaderFor(t, capture), newMonitor(t, v, model), func(r pipeline.Result) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

// sameResult reports how a pipeline result differs from the sequential
// one, or "" when they match bit for bit.
func sameResult(want, got pipeline.Result) string {
	if got.Index != want.Index {
		return fmt.Sprintf("index %d, want %d", got.Index, want.Index)
	}
	if got.Frame.ID != want.Frame.ID || !bytes.Equal(got.Frame.Data, want.Frame.Data) ||
		got.Record.TimeSec != want.Record.TimeSec || got.Record.ECUIndex != want.Record.ECUIndex {
		return fmt.Sprintf("frame %#x@%g, want %#x@%g", got.Frame.ID, got.Record.TimeSec, want.Frame.ID, want.Record.TimeSec)
	}
	return diffResults(want.Verdict, got.Verdict)
}

// TestDryFeedMatchesSequential replays a source that is always dry, so
// every record is its own batch: with a free slot the reader scores
// and delivers each one itself, and with every slot held from the
// reader's view each batch is scored by a pool worker and delivered by
// the replay's delivery goroutine. Either way the verdict stream must
// match pipeline.Sequential bit for bit, with nothing left checked out.
func TestDryFeedMatchesSequential(t *testing.T) {
	v := vehicle.NewVehicleB()
	model, capture, _ := fixture(t)
	want := sequentialResults(t, v, model, capture)

	for _, workers := range []int{1, 4, 8} {
		for _, onWorkers := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/reader", workers)
			if onWorkers {
				name = fmt.Sprintf("workers=%d/slots-held", workers)
			}
			t.Run(name, func(t *testing.T) {
				p, err := pipeline.New(newMonitor(t, v, model), pipeline.Config{Pool: newPool(t, workers)})
				if err != nil {
					t.Fatal(err)
				}
				var scored atomic.Int64
				pipeline.Tap(p, func(d int) {
					if d > 0 {
						scored.Add(1)
					}
				}, onWorkers)
				n := 0
				err = p.Run(fixedSource{newReaderFor(t, capture), 0}, func(r pipeline.Result) error {
					if n >= len(want) {
						return fmt.Errorf("extra result %d", r.Index)
					}
					if d := sameResult(want[n], r); d != "" {
						return fmt.Errorf("record %d diverges from sequential: %s", n, d)
					}
					n++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) || scored.Load() != int64(len(want)) {
					t.Fatalf("delivered %d and scored %d one-record batches of %d records", n, scored.Load(), len(want))
				}
				if b := p.Stats().BuffersOutstanding; b != 0 {
					t.Fatalf("%d pooled buffers outstanding after a clean run", b)
				}
			})
		}
	}
}

// TestReaderAbortMidDeliveryReleasesBuffers fails the sink in the
// middle of a batch the reader scored and is delivering itself: the
// source runs dry after every fifth record, so each five-record batch
// is scored on the reader and, with the turn free, delivered there.
// The replay must return the sink's error with no pooled buffer
// outstanding, and the shared pool must still have every slot.
func TestReaderAbortMidDeliveryReleasesBuffers(t *testing.T) {
	v := vehicle.NewVehicleB()
	model, capture, _ := fixture(t)
	pool := newPool(t, 4)

	dry := map[int]bool{}
	for i := 5; i < 100; i += 5 {
		dry[i] = true
	}
	p, err := pipeline.New(newMonitor(t, v, model), pipeline.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink failed mid-batch")
	delivered := 0
	err = p.Run(&cutSource{Source: newReaderFor(t, capture), dry: dry}, func(r pipeline.Result) error {
		delivered++
		if r.Index == 12 { // the third record of the batch 10..14
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if delivered != 13 {
		t.Fatalf("sink saw %d results, want 13", delivered)
	}
	st := p.Stats()
	if st.BuffersOutstanding != 0 {
		t.Fatalf("%d pooled buffers leaked by the aborted delivery", st.BuffersOutstanding)
	}
	if st.RecordsIn != 15 {
		t.Fatalf("reader pulled %d records; an abort on the reader must stop it at the batch it was delivering (15)", st.RecordsIn)
	}

	// Every slot came back: replays that need the whole pool complete.
	want := sequentialResults(t, v, model, capture)
	p2, err := pipeline.New(newMonitor(t, v, model), pipeline.Config{Pool: pool, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := p2.Run(newReaderFor(t, capture), func(r pipeline.Result) error {
		if d := sameResult(want[n], r); d != "" {
			return fmt.Errorf("record %d: %s", n, d)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("second replay delivered %d of %d", n, len(want))
	}
}

// TestConcurrentDryReplaysRespectSlots runs several dry replays at once
// on one small pool — half scoring on their readers whenever a slot is
// free, half handing every batch to the workers — and records the most
// batches ever scored at the same moment. It must never exceed the
// pool's slots, and every replay must still match the sequential path.
func TestConcurrentDryReplaysRespectSlots(t *testing.T) {
	v := vehicle.NewVehicleB()
	model, capture, _ := fixture(t)
	want := sequentialResults(t, v, model, capture)

	const slots, replays = 2, 6
	pool := newPool(t, slots)
	var now, high atomic.Int64
	scoring := func(d int) {
		n := now.Add(int64(d))
		for {
			h := high.Load()
			if n <= h || high.CompareAndSwap(h, n) {
				return
			}
		}
	}
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for k := 0; k < replays; k++ {
		p, err := pipeline.New(newMonitor(t, v, model), pipeline.Config{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		pipeline.Tap(p, scoring, k%2 == 1)
		src := fixedSource{newReaderFor(t, capture), 0}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			errs[k] = p.Run(src, func(r pipeline.Result) error {
				if d := sameResult(want[n], r); d != "" {
					return fmt.Errorf("replay %d record %d: %s", k, n, d)
				}
				n++
				return nil
			})
			if errs[k] == nil && n != len(want) {
				errs[k] = fmt.Errorf("replay %d delivered %d of %d", k, n, len(want))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if h := high.Load(); h > slots || h < 1 {
		t.Fatalf("%d batches scored at once on a %d-slot pool", h, slots)
	}
}

// dryFeed is an in-memory source that is always dry: it serves a
// capture's records round and round, shifted later in time on every
// pass so the stateful detectors see one steady stream, until limit
// records have been read.
type dryFeed struct {
	recs  []trace.RawRecord
	span  float64
	n     int
	limit int
}

func newDryFeed(t testing.TB, capture []byte, limit int) *dryFeed {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	f := &dryFeed{limit: limit}
	for {
		var raw trace.RawRecord
		if err := rd.NextRawInto(&raw); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		f.recs = append(f.recs, raw)
	}
	f.span = f.recs[len(f.recs)-1].TimeSec + 0.01
	return f
}

func (f *dryFeed) NextRawInto(rec *trace.RawRecord) error {
	if f.n >= f.limit {
		return io.EOF
	}
	src := &f.recs[f.n%len(f.recs)]
	codes, data := rec.Codes, rec.Data
	*rec = *src
	rec.Codes = append(codes[:0], src.Codes...)
	rec.Data = append(data[:0], src.Data...)
	rec.TimeSec += float64(f.n/len(f.recs)) * f.span
	f.n++
	return nil
}

func (f *dryFeed) Buffered() int { return 0 }

// cleanCapture is Vehicle B's periodic traffic with no attack and no
// diagnostic transfers: the steady state of a live bus.
func cleanCapture(t testing.TB, v *vehicle.Vehicle, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	err = v.Stream(vehicle.GenConfig{NumMessages: n, Seed: 111}, func(m vehicle.Message) error {
		return w.Write(&trace.Record{ECUIndex: int32(m.ECUIndex), TimeSec: m.TimeSec, FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: m.Trace})
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The model and captures the tests and benchmark in this file share:
// training takes seconds, many more under -race, so they are built
// once per process, not once per test and -count.
var (
	fixtureOnce sync.Once
	fxModel     *core.Model
	fxCapture   []byte // buildCapture's mixed traffic
	fxClean     []byte // cleanCapture's 600 steady-state records
)

func fixture(tb testing.TB) (model *core.Model, capture, clean []byte) {
	fixtureOnce.Do(func() {
		v := vehicle.NewVehicleB()
		fxModel, fxCapture, fxClean = buildModel(tb, v), buildCapture(tb, v), cleanCapture(tb, v, 600)
	})
	return fxModel, fxCapture, fxClean
}

// runDryFeed replays frames records of the clean capture as a live
// feed that is always dry — every record a one-record batch, scored
// and delivered on the reader — and calls mark on the sink after
// record warm and after the last one.
func runDryFeed(tb testing.TB, frames, warm int, mark func()) {
	v := vehicle.NewVehicleB()
	model, _, capture := fixture(tb)
	p, err := pipeline.New(newMonitor(tb, v, model), pipeline.Config{Pool: newPool(tb, 2)})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	err = p.Run(newDryFeed(tb, capture, frames), func(pipeline.Result) error {
		n++
		if n == warm || n == frames {
			mark()
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if n != frames {
		tb.Fatalf("delivered %d of %d frames", n, frames)
	}
}

// TestDryFeedAllocFree pins the live path's allocation floor: once the
// pools and the monitor are warm, a frame that arrives on a dry feed is
// read, scored, sequenced and delivered without allocating.
func TestDryFeedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts; allocation bounds do not hold")
	}
	const warm, frames = 1000, 3000
	// A first replay warms the process: the shared buffer pools fill
	// and sync.Pool grows its per-processor queues to the working set.
	runDryFeed(t, frames, warm, func() {})
	// A collection empties the sync.Pools, and the first Get or Put
	// after one allocates the pool's per-processor slots: a cost per
	// collection, not per frame. Collect the set-up garbage now; with
	// nothing allocated per frame, no collection runs while measuring.
	runtime.GC()
	var ms [2]runtime.MemStats
	marks := 0
	runDryFeed(t, frames, warm, func() {
		runtime.ReadMemStats(&ms[marks])
		marks++
	})
	// Per frame as testing.AllocsPerRun counts: the average rounded
	// down. Anything the path allocated per frame, or per one-record
	// batch, reads 1 or more. What stays below it is sync.Pool growing
	// a per-processor queue now and then when a goroutine moves between
	// processors, which a loaded host does mid-replay.
	if allocs := ms[1].Mallocs - ms[0].Mallocs; allocs/(frames-warm) != 0 {
		t.Fatalf("%d allocations over %d warm dry-feed frames (%.3f per frame), want 0 per frame",
			allocs, frames-warm, float64(allocs)/float64(frames-warm))
	}
}

// BenchmarkDryFeed is the live path without the daemon around it:
// one-record batches off an in-memory feed that is always dry, each
// read, scored, sequenced and delivered on the reader.
func BenchmarkDryFeed(b *testing.B) {
	fixture(b)
	var ms [2]runtime.MemStats
	marks := 0
	b.ResetTimer()
	runtime.ReadMemStats(&ms[0])
	runDryFeed(b, b.N, -1, func() {
		runtime.ReadMemStats(&ms[1])
		marks++
	})
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(ms[1].Mallocs-ms[0].Mallocs)/float64(b.N), "allocs/frame")
}
