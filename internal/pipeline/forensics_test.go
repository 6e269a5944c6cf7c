package pipeline_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/ids"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// sequentialVerdicts replays the capture through Composite.Process in
// arrival order — the reference stream every traced run must match.
func sequentialVerdicts(t *testing.T, v *vehicle.Vehicle, model *core.Model, capture []byte) []ids.CompositeResult {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	var want []ids.CompositeResult
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
		want = append(want, mon.Process(frame, rec.Trace, rec.TimeSec))
	}
	return want
}

// TestFlightRecorderDeterminism is the tentpole's overhead-free-path
// guarantee from the other side: with tracing and the flight recorder
// ON, the verdict stream must still be bit-for-bit identical to the
// sequential uninstrumented run, at every worker count — and every
// result must carry a deterministic trace with the pipeline's spans.
func TestFlightRecorderDeterminism(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	want := sequentialVerdicts(t, v, model, capture)

	wantAlarms := int64(0)
	for _, r := range want {
		if r.Anomalous() {
			wantAlarms++
		}
	}
	if wantAlarms == 0 {
		t.Fatal("capture produced no alarms; the test proves nothing")
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(string(rune('0'+workers)), func(t *testing.T) {
			rd, err := trace.NewReader(bytes.NewReader(capture))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := tracing.NewRecorder(tracing.RecorderConfig{Window: 6})
			if err != nil {
				t.Fatal(err)
			}
			mon := newMonitor(t, v, model)
			idx := 0
			_, err = replay(rd, mon, pipeline.Config{Pool: newPool(t, workers), Recorder: rec}, func(r pipeline.Result) error {
				if d := diffResults(want[r.Index], r.Verdict); d != "" {
					t.Fatalf("record %d diverges with flight recorder on: %s", r.Index, d)
				}
				if r.Trace == nil {
					t.Fatalf("record %d has no trace", r.Index)
				}
				if got := r.Trace.ID; got != tracing.TraceID(r.Index+1) {
					t.Fatalf("record %d trace id %d: ids must be deterministic", r.Index, got)
				}
				names := map[string]bool{}
				for _, sp := range r.Trace.Spans {
					names[sp.Name] = true
					if sp.EndNS < sp.StartNS {
						t.Fatalf("record %d span %s never ended", r.Index, sp.Name)
					}
				}
				wantSpans := []string{"pipeline.read", "pipeline.decode", "pipeline.sequence"}
				if want[r.Index].ExtractErr == nil {
					wantSpans = append(wantSpans, "ids.extract", "ids.score")
				}
				for _, n := range wantSpans {
					if !names[n] {
						t.Fatalf("record %d trace missing span %s (has %v)", r.Index, n, names)
					}
				}
				idx++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if idx != len(want) {
				t.Fatalf("delivered %d of %d records", idx, len(want))
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			st := rec.Stats()
			if st.Frames != int64(len(want)) {
				t.Fatalf("recorder saw %d frames, want %d", st.Frames, len(want))
			}
			if st.Alarms != wantAlarms {
				t.Fatalf("recorder counted %d alarms, sequential run had %d", st.Alarms, wantAlarms)
			}
		})
	}
}

// TestFlightBundleReproducesAlarm replays the hijack capture with a
// bundle directory and checks each persisted bundle against the
// sequential reference: the decision record must reproduce the
// alarm's Mahalanobis distances exactly — both as stored and when
// re-scored from the record's own edge set.
func TestFlightBundleReproducesAlarm(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	want := sequentialVerdicts(t, v, model, capture)

	dir := t.TempDir()
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tracing.NewRecorder(tracing.RecorderConfig{
		Window: 4, Keep: 1 << 20, Dir: dir,
		Header: trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	_, err = replay(rd, mon, pipeline.Config{Pool: newPool(t, 4), Recorder: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("hijack replay produced no bundles")
	}

	voltageChecked := 0
	for _, meta := range bundles {
		if meta.Path == "" {
			t.Fatalf("bundle %d was not persisted", meta.Seq)
		}
		b, err := tracing.ReadBundle(meta.Path)
		if err != nil {
			t.Fatal(err)
		}
		alarm := b.Alarm()
		if alarm == nil {
			t.Fatalf("bundle %d has no alarm decision", b.Seq)
		}
		ref := want[alarm.Index]
		if alarm.Anomaly != ref.Anomalous() {
			t.Fatalf("bundle %d alarm flag %v, sequential %v", b.Seq, alarm.Anomaly, ref.Anomalous())
		}
		if ref.ExtractErr != nil || !ref.Voltage.Anomaly {
			continue // timing/transport alarm: no voltage evidence to check
		}
		voltageChecked++
		d := ref.Voltage
		if alarm.MinDist != d.MinDist || alarm.Expected != int(d.Expected) || alarm.Predicted != int(d.Predict) {
			t.Fatalf("bundle %d records dist %v cluster %d→%d, sequential %v %d→%d",
				b.Seq, alarm.MinDist, alarm.Expected, alarm.Predicted, d.MinDist, d.Expected, d.Predict)
		}
		if alarm.Margin != model.Margin {
			t.Fatalf("bundle %d margin %v, model %v", b.Seq, alarm.Margin, model.Margin)
		}
		if len(alarm.Distances) != len(model.Clusters) {
			t.Fatalf("bundle %d has %d cluster distances, model has %d", b.Seq, len(alarm.Distances), len(model.Clusters))
		}
		// Re-score the persisted edge set: the JSON round trip is exact,
		// so the model must land on the identical distances.
		_, ex := model.DetectExplain(canbus.SourceAddress(alarm.SA), alarm.EdgeSet)
		for i, cd := range ex.Distances {
			got := alarm.Distances[i]
			if got.ID != cd.ID || got.Dist != cd.Dist {
				t.Fatalf("bundle %d cluster %d distance %v, re-scored %v", b.Seq, got.ID, got.Dist, cd.Dist)
			}
		}
		if ex.Threshold != alarm.Threshold {
			t.Fatalf("bundle %d threshold %v, re-scored %v", b.Seq, alarm.Threshold, ex.Threshold)
		}
		if len(alarm.Samples) == 0 {
			t.Fatalf("bundle %d alarm has no waveform samples", b.Seq)
		}
	}
	if voltageChecked == 0 {
		t.Fatal("no voltage-alarm bundle was verified")
	}
}

// TestFlightBundlesOwnTheirRecords pins the ownership rule that lets
// traced replays recycle their records: every decision a bundle keeps
// holds its own copy of the record's payload and samples, so after a
// replay that reused every record buffer many times over, each one
// still equals the capture's record at its index.
func TestFlightBundlesOwnTheirRecords(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	_, recs, err := trace.ReadAll(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tracing.NewRecorder(tracing.RecorderConfig{Window: 4, Keep: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	if _, err := replay(rd, mon, pipeline.Config{Pool: newPool(t, 4), Recorder: rec}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("hijack replay produced no bundles")
	}
	for _, b := range bundles {
		for _, d := range b.Decisions {
			want := recs[d.Index]
			if !bytes.Equal(d.Data, want.Data) || !slices.Equal(d.Samples, want.Trace) {
				t.Fatalf("bundle %d decision %d does not hold its own record bytes", b.Seq, d.Index)
			}
		}
	}
}

// TestRecorderOffFastPath pins the uninstrumented contract: with no
// recorder configured, results carry no trace and no spans are built.
func TestRecorderOffFastPath(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	_, err = replay(rd, mon, pipeline.Config{Pool: newPool(t, 4)}, func(r pipeline.Result) error {
		if r.Trace != nil {
			t.Fatalf("record %d carries a trace on the fast path", r.Index)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
