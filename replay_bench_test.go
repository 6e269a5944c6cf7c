package vprofile_test

import (
	"bytes"
	"sync"
	"testing"

	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// The replay benchmarks compare sequential replay (Composite.Process
// in a read loop) against the concurrent pipeline at several worker
// counts, over the same ≥10k-record capture. On a multicore host the
// pipeline's throughput should scale with the pool until the serial
// record-reader stage saturates:
//
//	go test -bench Replay -benchmem
const replayRecords = 10000

var (
	replayOnce         sync.Once
	replayCapture      []byte
	replayMonitor      func(b *testing.B) *ids.Composite
	replayInstrumented func(b *testing.B, reg *obs.Registry) *ids.Composite
)

// replayFixture generates the capture and trains the model once for
// all replay benchmarks.
func replayFixture(b *testing.B) {
	replayOnce.Do(func() {
		capture, model, v, err := experiments.ReplayFixture(replayRecords)
		if err != nil {
			b.Fatal(err)
		}
		replayCapture = capture

		replayMonitor = func(b *testing.B) *ids.Composite {
			mon, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: v.ExtractionConfig()})
			if err != nil {
				b.Fatal(err)
			}
			return mon
		}
		replayInstrumented = func(b *testing.B, reg *obs.Registry) *ids.Composite {
			mon, err := ids.NewComposite(model, ids.CompositeConfig{
				Extraction: v.ExtractionConfig(), Metrics: ids.NewMetrics(reg),
			})
			if err != nil {
				b.Fatal(err)
			}
			return mon
		}
	})
	if replayCapture == nil {
		b.Fatal("replay fixture failed in an earlier benchmark")
	}
}

func benchReplay(b *testing.B, workers int) {
	replayFixture(b)
	b.ResetTimer()
	var frames int64
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(replayCapture))
		if err != nil {
			b.Fatal(err)
		}
		mon := replayMonitor(b)
		var st pipeline.Stats
		if workers == 0 {
			st, err = pipeline.Sequential(rd, mon, nil)
		} else {
			st, err = pipeline.Replay(rd, mon, pipeline.Config{Workers: workers}, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		if st.RecordsOut != replayRecords {
			b.Fatalf("replayed %d of %d records", st.RecordsOut, replayRecords)
		}
		frames += st.RecordsOut
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// benchReplayMetrics is the instrumented twin of benchReplay: full
// observability (capture-reader, pipeline and detector metrics on one
// registry). Comparing the two quantifies the metrics overhead, which
// the acceptance bar holds under 5%.
func benchReplayMetrics(b *testing.B, workers int) {
	replayFixture(b)
	reg := obs.NewRegistry()
	pm := pipeline.NewMetrics(reg)
	tm := trace.NewMetrics(reg)
	b.ResetTimer()
	var frames int64
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(replayCapture))
		if err != nil {
			b.Fatal(err)
		}
		rd.SetMetrics(tm)
		mon := replayInstrumented(b, reg)
		st, err := pipeline.Replay(rd, mon, pipeline.Config{Workers: workers, Metrics: pm}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.RecordsOut != replayRecords {
			b.Fatalf("replayed %d of %d records", st.RecordsOut, replayRecords)
		}
		frames += st.RecordsOut
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkReplaySequential(b *testing.B)       { benchReplay(b, 0) }
func BenchmarkReplayParallel1(b *testing.B)        { benchReplay(b, 1) }
func BenchmarkReplayParallel2(b *testing.B)        { benchReplay(b, 2) }
func BenchmarkReplayParallel4(b *testing.B)        { benchReplay(b, 4) }
func BenchmarkReplayParallel8(b *testing.B)        { benchReplay(b, 8) }
func BenchmarkReplayParallel4Metrics(b *testing.B) { benchReplayMetrics(b, 4) }
func BenchmarkReplayParallel8Metrics(b *testing.B) { benchReplayMetrics(b, 8) }

// benchReplayFlight is the forensic twin: per-frame tracing plus an
// in-memory flight recorder (no bundle directory, so the measurement
// is the steady-state span + ring-buffer cost, not disk IO).
// Comparing against benchReplay of the same worker count quantifies
// the tracing overhead, held to the same <5% bar.
func benchReplayFlight(b *testing.B, workers int) {
	replayFixture(b)
	b.ResetTimer()
	var frames int64
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(replayCapture))
		if err != nil {
			b.Fatal(err)
		}
		rec, err := tracing.NewRecorder(tracing.RecorderConfig{})
		if err != nil {
			b.Fatal(err)
		}
		mon := replayMonitor(b)
		st, err := pipeline.Replay(rd, mon, pipeline.Config{Workers: workers, Recorder: rec}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		if st.RecordsOut != replayRecords {
			b.Fatalf("replayed %d of %d records", st.RecordsOut, replayRecords)
		}
		frames += st.RecordsOut
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkReplayParallel4Flight(b *testing.B) { benchReplayFlight(b, 4) }
func BenchmarkReplayParallel8Flight(b *testing.B) { benchReplayFlight(b, 8) }
