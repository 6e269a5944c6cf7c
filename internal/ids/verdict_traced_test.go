package ids_test

import (
	"math"
	"reflect"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/attack"
	"vprofile/internal/edgeset"
	"vprofile/internal/ids"
	"vprofile/internal/linalg"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/vehicle"
)

// hijackStream renders vehicle B's hijack scenario — clean traffic
// plus frames a compromised ECU injects under a victim's address, so
// the stream carries voltage alarms — followed by two truncated
// traces that fail extraction.
func hijackStream(t *testing.T, v *vehicle.Vehicle, n int) []vehicle.Message {
	t.Helper()
	spec, err := attack.ScenarioByName("hijack")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := attack.GenerateScenario(v, spec, n, 19)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]vehicle.Message, 0, len(msgs)+2)
	for _, m := range msgs {
		out = append(out, m.Message)
	}
	for _, keep := range []int{0, 120} {
		m := out[0]
		m.Trace = append(analog.Trace(nil), m.Trace[:keep]...)
		out = append(out, m)
	}
	return out
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestVoltageVerdictTracedMatchesUntraced pins the one verdict body:
// a traced verdict returns exactly the untraced Detection and error,
// its edge set is Extract's bit for bit, its distances are
// DetectExplainInto's, and the edge set it hands out is the frame's
// own — later verdicts on the same goroutine, which reuse the pooled
// extraction scratch, leave it untouched.
func TestVoltageVerdictTracedMatchesUntraced(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	c, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: v.ExtractionConfig(), Warmup: 400})
	if err != nil {
		t.Fatal(err)
	}
	msgs := hijackStream(t, v, 600)

	kept := make([]linalg.Vector, len(msgs))
	want := make([]linalg.Vector, len(msgs))
	alarms, failures := 0, 0
	for i, m := range msgs {
		det, err := c.VoltageVerdict(m.Frame, m.Trace)
		ft := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
		tdet, fx, terr := c.VoltageVerdictTraced(m.Frame, m.Trace, ft)
		if tdet != det {
			t.Fatalf("msg %d: traced verdict %+v, untraced %+v", i, tdet, det)
		}
		ref, rerr := edgeset.Extract(m.Trace, v.ExtractionConfig())
		if (err == nil) != (terr == nil) || (err == nil) != (rerr == nil) {
			t.Fatalf("msg %d: untraced err %v, traced err %v, Extract err %v", i, err, terr, rerr)
		}
		if err != nil {
			if terr.Error() != err.Error() {
				t.Fatalf("msg %d: traced err %q, untraced %q", i, terr, err)
			}
			if !reflect.DeepEqual(fx, ids.Forensics{}) {
				t.Fatalf("msg %d: failed extraction left forensics %+v", i, fx)
			}
			failures++
			continue
		}
		if det.Anomaly {
			alarms++
		}
		if !sameBits(fx.EdgeSet, ref.Set) {
			t.Fatalf("msg %d: forensic edge set differs from Extract's", i)
		}
		wantDet, wantEx := model.DetectExplainInto(ref.SA, ref.Set, nil)
		if wantDet != det {
			t.Fatalf("msg %d: verdict %+v, DetectExplainInto %+v", i, det, wantDet)
		}
		if !reflect.DeepEqual(fx.Explain, wantEx) {
			t.Fatalf("msg %d: explanation %+v, DetectExplainInto %+v", i, fx.Explain, wantEx)
		}
		kept[i] = fx.EdgeSet
		want[i] = ref.Set
	}
	if alarms == 0 || failures == 0 {
		t.Fatalf("stream exercised %d alarms and %d extract failures, want both", alarms, failures)
	}
	for i := range kept {
		if !sameBits(kept[i], want[i]) {
			t.Fatalf("msg %d: edge set changed after later verdicts — it aliases the pooled scratch", i)
		}
	}
}

// TestVoltageVerdictTracedAllocFree is the allocation gate of the
// traced verdict: on a warm composite, with the frame's trace built
// beforehand, extraction, scoring, spans and evidence all land in
// pooled or trace-owned storage.
func TestVoltageVerdictTracedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts; allocation bounds do not hold")
	}
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	msgs := hijackStream(t, v, 200)
	var frames []vehicle.Message
	for _, m := range msgs {
		if _, err := c.VoltageVerdict(m.Frame, m.Trace); err == nil {
			frames = append(frames, m)
		}
	}

	const runs = 200
	traces := make([]*tracing.FrameTrace, runs+1) // AllocsPerRun warms up once
	for i := range traces {
		traces[i] = tracing.NewFrameTrace(tracing.TraceID(i) + 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := frames[i%len(frames)]
		if _, _, err := c.VoltageVerdictTraced(m.Frame, m.Trace, traces[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("traced verdict allocates %.0f times per call, want 0", allocs)
	}
}
