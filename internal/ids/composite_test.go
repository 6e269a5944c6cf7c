package ids_test

import (
	"bytes"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/ids"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

func newComposite(t *testing.T, v *vehicle.Vehicle, warmup int) *ids.Composite {
	t.Helper()
	m := buildModel(t, v)
	c, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: v.ExtractionConfig(), Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompositeValidation(t *testing.T) {
	v := vehicle.NewVehicleB()
	if _, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: v.ExtractionConfig()}); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := v.ExtractionConfig()
	bad.BitWidth = 0
	m := buildModel(t, v)
	if _, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: bad}); err == nil {
		t.Fatal("bad extraction accepted")
	}
}

func TestCompositeCleanTraffic(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	anomalies := 0
	transfers := 0
	err := v.Stream(vehicle.GenConfig{NumMessages: 1400, Seed: 71, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		r := c.Process(m.Frame, m.Trace, m.TimeSec)
		if r.Anomalous() {
			anomalies++
		}
		if r.Transfer != nil {
			transfers++
			if r.Transfer.PGN != canbus.PGNDM1 {
				t.Fatalf("transfer PGN %#x", uint32(r.Transfer.PGN))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if anomalies > 14 { // 1% of clean traffic
		t.Fatalf("%d anomalies on clean traffic", anomalies)
	}
	if transfers == 0 {
		t.Fatal("no diagnostic transfers completed")
	}
	if silent := c.SilentStreams(); len(silent) != 0 {
		t.Fatalf("clean run has %d silent streams", silent)
	}
}

func TestCompositeCatchesHijackAndFlood(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	// Warm up with clean traffic.
	err := v.Stream(vehicle.GenConfig{NumMessages: 800, Seed: 72}, func(m vehicle.Message) error {
		c.Process(m.Frame, m.Trace, m.TimeSec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hijack: ECU 7's hardware under ECU 2's address (continuing the
	// timeline after the warm-up capture).
	frames := []streamFrame{{ecu: 7, sa: v.ECUs[2].SAs()[0]}}
	stream, _ := busStream(t, v, frames, 73)
	seg := trace.NewSegmenter(trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC}, bytes.NewReader(packCodes(stream)))
	_, recs, err := trace.ReadAll(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d segmented frames", len(recs))
	}
	// Feed the segmented hijack frame through the composite.
	fr, err := canbus.NewJ1939Frame(canbus.J1939ID{Priority: 6, PGN: canbus.PGNBrakes, SA: v.ECUs[2].SAs()[0]}, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the raw stream trace as the composite's input.
	r := c.Process(fr, stream, 100.0)
	if !r.Anomalous() || !r.Voltage.Anomaly {
		t.Fatalf("hijack not flagged: %+v", r.Voltage)
	}
}

func TestCompositeSilentStreamsAfterSuspension(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	var lastVictimID uint32
	err := v.Stream(vehicle.GenConfig{NumMessages: 900, Seed: 74}, func(m vehicle.Message) error {
		if m.ECUIndex == 0 {
			lastVictimID = m.Frame.ID
		}
		c.Process(m.Frame, m.Trace, m.TimeSec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Continue the capture with ECU 0 suspended.
	err = v.Stream(vehicle.GenConfig{NumMessages: 900, Seed: 75}, func(m vehicle.Message) error {
		if m.ECUIndex == 0 {
			return nil
		}
		c.Process(m.Frame, m.Trace, m.TimeSec+10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	silent := c.SilentStreams()
	if len(silent) == 0 {
		t.Fatal("suspension left no silent streams")
	}
	found := false
	for _, id := range silent {
		if id == lastVictimID {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim id %#x not among silent streams %v", lastVictimID, silent)
	}
}
