package ids_test

import (
	"sync"
	"testing"

	"vprofile/internal/core"
	"vprofile/internal/ids"
	"vprofile/internal/linalg"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/vehicle"
)

// TestVoltageVerdictConcurrent hammers the verdict from many
// goroutines over the same Composite — the shape the replay pipeline
// produces, with half the goroutines tracing their frames as a
// flight-recorded replay does — and checks every concurrent verdict,
// and every traced edge set, is bit-identical to its sequential
// counterpart. Under -race this also proves the pooled extraction
// scratch buffers never cross goroutines while in use, traced or not.
func TestVoltageVerdictConcurrent(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)

	var msgs []vehicle.Message
	err := v.Stream(vehicle.GenConfig{NumMessages: 600, Seed: 17}, func(m vehicle.Message) error {
		msgs = append(msgs, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]core.Detection, len(msgs))
	wantErr := make([]error, len(msgs))
	wantSet := make([]linalg.Vector, len(msgs))
	for i, m := range msgs {
		var fx ids.Forensics
		want[i], fx, wantErr[i] = c.VoltageVerdictTraced(m.Frame, m.Trace, tracing.NewFrameTrace(1))
		wantSet[i] = fx.EdgeSet
	}

	const workers = 8
	got := make([]core.Detection, len(msgs))
	gotErr := make([]error, len(msgs))
	gotSet := make([]linalg.Vector, len(msgs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(msgs); i += workers {
				if w%2 == 0 {
					got[i], gotErr[i] = c.VoltageVerdict(msgs[i].Frame, msgs[i].Trace)
					continue
				}
				ft := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
				var fx ids.Forensics
				got[i], fx, gotErr[i] = c.VoltageVerdictTraced(msgs[i].Frame, msgs[i].Trace, ft)
				gotSet[i] = fx.EdgeSet
			}
		}(w)
	}
	wg.Wait()

	for i := range msgs {
		if (wantErr[i] == nil) != (gotErr[i] == nil) {
			t.Fatalf("msg %d: sequential err %v, concurrent err %v", i, wantErr[i], gotErr[i])
		}
		if got[i] != want[i] {
			t.Fatalf("msg %d: concurrent verdict %+v, sequential %+v", i, got[i], want[i])
		}
		if (i%workers)%2 == 1 && !sameBits(gotSet[i], wantSet[i]) {
			t.Fatalf("msg %d: concurrent traced edge set differs from the sequential one", i)
		}
	}
}
