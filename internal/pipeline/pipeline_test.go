package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"vprofile/internal/attack"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// buildModel trains a Mahalanobis model on Vehicle B traffic.
func buildModel(t testing.TB, v *vehicle.Vehicle) *core.Model {
	t.Helper()
	train, err := experiments.CollectSamples(v, 1500, 7, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{
		Metric: core.Mahalanobis, SAMap: v.SAMap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	val, err := experiments.CollectSamples(v, 800, 8, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	margin, _ := experiments.OptimizeMargin(experiments.FalsePositiveRecords(m, val), experiments.MaxAccuracy)
	m.Margin = margin * 1.5
	return m
}

// buildCapture writes a three-segment capture: clean traffic with
// diagnostic TP.BAM transfers (covering the composite's warm-up), a
// hijack segment where ECU 7's hardware transmits under ECU 2's
// address, and a foreign-device segment — a second vehicle's
// transceiver imitating ECU 1 — so the determinism comparison covers
// voltage anomalies, timing, transfer completions and extract paths.
func buildCapture(t testing.TB, v *vehicle.Vehicle) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	offset := 0.0
	last := 0.0
	write := func(m vehicle.Message) {
		last = offset + m.TimeSec
		err := w.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex),
			TimeSec:  last,
			FrameID:  m.Frame.ID,
			Data:     m.Frame.Data,
			Trace:    m.Trace,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	err = v.Stream(vehicle.GenConfig{NumMessages: 1000, Seed: 101, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		write(m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []attack.Scenario{
		{Kind: attack.Hijack, AttackerECU: 7, VictimECU: 2, NumMessages: 400, Seed: 102},
		{Kind: attack.Foreign, VictimECU: 1, NumMessages: 300, Seed: 103},
	}
	for _, sc := range scenarios {
		offset = last + 0.1
		msgs, err := attack.Run(v, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			write(m.Message)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newMonitor(t testing.TB, v *vehicle.Vehicle, m *core.Model) *ids.Composite {
	t.Helper()
	mon, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: v.ExtractionConfig(), Warmup: 500})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// newPool starts the worker pool a test replays on, closed when the
// test ends. Every test that replays on a pool builds it here.
func newPool(t testing.TB, workers int) *pipeline.Pool {
	t.Helper()
	pool := pipeline.NewPool(workers)
	t.Cleanup(pool.Close)
	return pool
}

// replay runs one replayer built from cfg over src and returns its
// final stats.
func replay(src pipeline.Source, mon *ids.Composite, cfg pipeline.Config, fn pipeline.Sink) (pipeline.Stats, error) {
	p, err := pipeline.New(mon, cfg)
	if err != nil {
		return pipeline.Stats{}, err
	}
	err = p.Run(src, fn)
	return p.Stats(), err
}

// errText folds an error to a comparable string ("" when nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffResults reports the first difference between two composite
// verdicts, or "" when they match bit for bit.
func diffResults(a, b ids.CompositeResult) string {
	if a.Voltage != b.Voltage {
		return fmt.Sprintf("voltage %+v vs %+v", a.Voltage, b.Voltage)
	}
	if errText(a.ExtractErr) != errText(b.ExtractErr) {
		return fmt.Sprintf("extract err %q vs %q", errText(a.ExtractErr), errText(b.ExtractErr))
	}
	if a.Timing != b.Timing || errText(a.TimingErr) != errText(b.TimingErr) {
		return fmt.Sprintf("timing %v/%q vs %v/%q", a.Timing, errText(a.TimingErr), b.Timing, errText(b.TimingErr))
	}
	if errText(a.TransferErr) != errText(b.TransferErr) {
		return fmt.Sprintf("transfer err %q vs %q", errText(a.TransferErr), errText(b.TransferErr))
	}
	if a.SAState != b.SAState || a.PrevSAState != b.PrevSAState || a.Suppressed != b.Suppressed {
		return fmt.Sprintf("quarantine %v<-%v/%v vs %v<-%v/%v",
			a.SAState, a.PrevSAState, a.Suppressed, b.SAState, b.PrevSAState, b.Suppressed)
	}
	switch {
	case (a.Transfer == nil) != (b.Transfer == nil):
		return fmt.Sprintf("transfer %v vs %v", a.Transfer, b.Transfer)
	case a.Transfer != nil:
		if a.Transfer.SA != b.Transfer.SA || a.Transfer.PGN != b.Transfer.PGN ||
			!bytes.Equal(a.Transfer.Payload, b.Transfer.Payload) {
			return fmt.Sprintf("transfer %+v vs %+v", a.Transfer, b.Transfer)
		}
	}
	return ""
}

// TestPipelineMatchesSequential is the determinism guarantee: the
// concurrent pipeline's per-record verdict stream — and the silent
// stream sweep at end of capture — must be identical to sequential
// Composite.Process, for any worker count.
func TestPipelineMatchesSequential(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)

	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	seqMon := newMonitor(t, v, model)
	var want []ids.CompositeResult
	seqAnomalies := 0
	seqTransfers := 0
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
			seqAnomalies++
		}
		if r.Transfer != nil {
			seqTransfers++
		}
		want = append(want, r)
	}
	seqSilent := seqMon.SilentStreams()

	// The capture must actually exercise the interesting paths, or
	// the equality below proves nothing.
	if seqAnomalies == 0 {
		t.Fatal("capture produced no anomalies")
	}
	if seqTransfers == 0 {
		t.Fatal("capture completed no transport transfers")
	}

	for _, tc := range []struct {
		workers int
		metrics bool
	}{{1, false}, {4, false}, {8, false}, {1, true}, {8, true}} {
		workers := tc.workers
		name := fmt.Sprintf("workers=%d", workers)
		if tc.metrics {
			name += "/metrics"
		}
		t.Run(name, func(t *testing.T) {
			rd, err := trace.NewReader(bytes.NewReader(capture))
			if err != nil {
				t.Fatal(err)
			}
			// The instrumented runs exercise the full observability
			// stack — capture-reader, pipeline and detector metrics —
			// and must still match the sequential verdict stream bit
			// for bit: instrumentation may observe, never perturb.
			var reg *obs.Registry
			cfg := pipeline.Config{Pool: newPool(t, workers)}
			var im *ids.Metrics
			if tc.metrics {
				reg = obs.NewRegistry()
				cfg.Metrics = pipeline.NewMetrics(reg)
				im = ids.NewMetrics(reg)
				rd.SetMetrics(trace.NewMetrics(reg))
			}
			mon, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: v.ExtractionConfig(), Warmup: 500, Metrics: im})
			if err != nil {
				t.Fatal(err)
			}
			idx := 0
			st, err := replay(rd, mon, cfg, func(r pipeline.Result) error {
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
			silent := mon.SilentStreams()
			if len(silent) != len(seqSilent) {
				t.Fatalf("silent sweep %v vs sequential %v", silent, seqSilent)
			}
			seen := make(map[uint32]bool, len(seqSilent))
			for _, id := range seqSilent {
				seen[id] = true
			}
			for _, id := range silent {
				if !seen[id] {
					t.Fatalf("silent id %#x not in sequential sweep %v", id, seqSilent)
				}
			}
			if st.RecordsIn != int64(len(want)) || st.RecordsOut != int64(len(want)) {
				t.Fatalf("stats in/out %d/%d, want %d", st.RecordsIn, st.RecordsOut, len(want))
			}
			if st.Workers != workers {
				t.Fatalf("stats workers %d, want %d", st.Workers, workers)
			}
			if st.WallTime <= 0 {
				t.Fatal("stats missing wall time")
			}
			if tc.metrics {
				snap := reg.Snapshot()
				n := int64(len(want))
				if got := snap["vprofile_pipeline_records_in_total"]; got != n {
					t.Fatalf("metrics records_in = %v, want %d", got, n)
				}
				if got := snap["vprofile_pipeline_records_out_total"]; got != n {
					t.Fatalf("metrics records_out = %v, want %d", got, n)
				}
				if got := snap["vprofile_capture_records_read_total"]; got != n {
					t.Fatalf("metrics capture records = %v, want %d", got, n)
				}
				saFrames := snap["vprofile_ids_sa_frames_total"].(map[string]int64)
				var total int64
				for _, c := range saFrames {
					total += c
				}
				if total != n {
					t.Fatalf("per-SA frame counts sum to %d, want %d", total, n)
				}
				dist := snap["vprofile_ids_voltage_distance"].(obs.HistogramSnapshot)
				if dist.Count == 0 {
					t.Fatal("distance histogram saw no observations")
				}
			}
		})
	}
}

// TestStatsMidRun snapshots a replay's Stats while it is in flight: a
// sink blocks at a known record, so the pipeline is frozen with work
// in every stage. Counters must be monotonic between snapshots, the
// wall clock must advance, and utilization must stay a sane fraction
// of worker capacity.
func TestStatsMidRun(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	p, err := pipeline.New(mon, pipeline.Config{Pool: newPool(t, 4)})
	if err != nil {
		t.Fatal(err)
	}

	const blockAt = 40
	reached := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	total := 0
	go func() {
		done <- p.Run(rd, func(r pipeline.Result) error {
			if r.Index == blockAt {
				close(reached)
				<-release
			}
			total++
			return nil
		})
	}()

	<-reached
	s1 := p.Stats()
	// The sink is parked inside record blockAt's delivery, which is
	// counted before the sink runs.
	if s1.RecordsOut != blockAt+1 {
		t.Fatalf("mid-run RecordsOut = %d, want %d", s1.RecordsOut, blockAt+1)
	}
	if s1.RecordsIn < s1.RecordsOut {
		t.Fatalf("RecordsIn %d < RecordsOut %d", s1.RecordsIn, s1.RecordsOut)
	}
	if s1.WallTime <= 0 {
		t.Fatal("mid-run snapshot has no wall time")
	}
	if u := s1.Utilization(); u < 0 || u > 1.5 {
		t.Fatalf("mid-run utilization %v outside sane bounds", u)
	}
	time.Sleep(5 * time.Millisecond)
	s2 := p.Stats()
	if s2.WallTime <= s1.WallTime {
		t.Fatalf("wall clock did not advance: %v then %v", s1.WallTime, s2.WallTime)
	}
	if s2.RecordsIn < s1.RecordsIn || s2.RecordsOut < s1.RecordsOut || s2.WorkerBusy < s1.WorkerBusy {
		t.Fatalf("counters regressed: %+v then %+v", s1, s2)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := p.Stats()
	if final.RecordsOut != final.RecordsIn || int(final.RecordsOut) != total {
		t.Fatalf("final stats %+v after %d deliveries", final, total)
	}
	if final.WallTime < s2.WallTime {
		t.Fatalf("final wall time %v below mid-run %v", final.WallTime, s2.WallTime)
	}
	if u := final.Utilization(); u <= 0 || u > 1.5 {
		t.Fatalf("final utilization %v outside (0, 1.5]", u)
	}
}

// errorSource fails after yielding n records.
type errorSource struct {
	src pipeline.Source
	n   int
	err error
}

func (s *errorSource) NextRawInto(rec *trace.RawRecord) error {
	if s.n <= 0 {
		return s.err
	}
	s.n--
	return s.src.NextRawInto(rec)
}

func (s *errorSource) Buffered() int { return s.src.Buffered() }

func TestPipelineStopsOnSourceError(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("digitizer unplugged")
	src := &errorSource{src: rd, n: 25, err: boom}
	mon := newMonitor(t, v, model)
	delivered := 0
	st, err := replay(src, mon, pipeline.Config{Pool: newPool(t, 4)}, func(r pipeline.Result) error {
		delivered++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Every record read before the fault still gets its verdict, in
	// order, before the error surfaces.
	if delivered != 25 || st.RecordsOut != 25 {
		t.Fatalf("delivered %d (stats %d), want 25", delivered, st.RecordsOut)
	}
}

func TestPipelineStopsOnSinkError(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	mon := newMonitor(t, v, model)
	delivered := 0
	_, err = replay(rd, mon, pipeline.Config{Pool: newPool(t, 4)}, func(r pipeline.Result) error {
		delivered++
		if delivered == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if delivered != 10 {
		t.Fatalf("sink ran %d times after failing at 10", delivered)
	}
}

func TestReplayerSingleUse(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	mon := newMonitor(t, v, model)
	p, err := pipeline.New(mon, pipeline.Config{Pool: newPool(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	empty := func() pipeline.Source {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	if err := p.Run(empty(), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(empty(), nil); err == nil {
		t.Fatal("second Run accepted")
	}
	if _, err := pipeline.New(nil, pipeline.Config{}); err == nil {
		t.Fatal("nil monitor accepted")
	}
	if _, err := pipeline.New(mon, pipeline.Config{}); err == nil {
		t.Fatal("replayer without a pool accepted")
	}
}
