package pipeline_test

import (
	"bytes"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/faults"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// buildFaultedCapture renders Vehicle B traffic with moderate analog
// faults composed on every trace, then damages the encoded byte
// stream — the degraded capture a hardened replay has to survive.
// Everything derives from fixed seeds, so two calls must produce
// byte-identical output.
func buildFaultedCapture(t testing.TB, v *vehicle.Vehicle) []byte {
	t.Helper()
	spec, err := faults.ParseSpec("sag=0.35,glitch=0.2,dropout=0.15")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(spec, 42, v.ADC)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	err = v.Stream(vehicle.GenConfig{NumMessages: 1500, Seed: 201, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		tr := append(analog.Trace(nil), m.Trace...)
		inj.Apply(idx, m.ECUIndex, m.TimeSec, tr)
		idx++
		return w.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex),
			TimeSec:  m.TimeSec,
			FrameID:  m.Frame.ID,
			Data:     m.Frame.Data,
			Trace:    tr,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, sites := faults.CorruptStream(buf.Bytes(), faults.StreamSpec{Flips: 3, Chops: 2}, 7)
	if sites == 0 {
		t.Fatal("stream corruption placed no damage")
	}
	return out
}

// TestFaultedReplayDeterminism extends the pipeline's determinism
// guarantee to the degraded path: with analog faults in the traces,
// corruption in the byte stream, the reader in recovery mode and
// quarantine enabled, the verdict stream — including quarantine
// states, suppression flags and the reader's corruption reports —
// must be bit-identical across worker counts and across repeated runs
// from the same fault seed.
func TestFaultedReplayDeterminism(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildFaultedCapture(t, v)
	if again := buildFaultedCapture(t, v); !bytes.Equal(capture, again) {
		t.Fatal("faulted capture generation is not reproducible from its seeds")
	}

	run := func(t *testing.T, workers int) ([]ids.CompositeResult, []trace.RecoveredCorruption) {
		rd, err := trace.NewReader(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		rd.EnableRecovery()
		mon, err := ids.NewComposite(model, ids.CompositeConfig{
			Extraction: v.ExtractionConfig(), Warmup: 500,
			Quarantine: &ids.QuarantineConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []ids.CompositeResult
		sink := func(r pipeline.Result) error {
			out = append(out, r.Verdict)
			return nil
		}
		if workers == 0 {
			_, err = pipeline.Sequential(rd, mon, sink)
		} else {
			_, err = replay(rd, mon, pipeline.Config{Pool: newPool(t, workers)}, sink)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, rd.Corruptions()
	}

	want, wantCorr := run(t, 0)
	if len(want) == 0 {
		t.Fatal("faulted capture replayed no records")
	}
	if len(wantCorr) == 0 {
		t.Fatal("recovery reader reported no corruption on a corrupted capture")
	}
	anomalies, suppressed := 0, 0
	for _, r := range want {
		if r.Anomalous() {
			anomalies++
		}
		if r.Suppressed {
			suppressed++
		}
	}
	// The comparison below proves nothing unless the fault machinery
	// actually engaged.
	if anomalies == 0 {
		t.Fatal("analog faults produced no anomalies")
	}
	if suppressed == 0 {
		t.Fatal("quarantine never suppressed an alarm")
	}

	for _, workers := range []int{1, 4, 8, 4} {
		got, gotCorr := run(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d delivered %d of %d records", workers, len(got), len(want))
		}
		for i := range want {
			if d := diffResults(want[i], got[i]); d != "" {
				t.Fatalf("workers=%d record %d diverges from sequential: %s", workers, i, d)
			}
		}
		if len(gotCorr) != len(wantCorr) {
			t.Fatalf("workers=%d recovered %d corruptions, sequential %d", workers, len(gotCorr), len(wantCorr))
		}
		for i := range wantCorr {
			if gotCorr[i].Offset != wantCorr[i].Offset || gotCorr[i].Skipped != wantCorr[i].Skipped {
				t.Fatalf("workers=%d corruption %d at offset %d (skipped %d), sequential offset %d (skipped %d)",
					workers, i, gotCorr[i].Offset, gotCorr[i].Skipped, wantCorr[i].Offset, wantCorr[i].Skipped)
			}
		}
	}
}
