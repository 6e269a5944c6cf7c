package pipeline_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// TestWatchdogAbortsWedgedSink wedges the sink behind a channel that
// only the watchdog firing will release: the replay must abort with
// ErrStalled instead of deadlocking behind its bounded queues.
func TestWatchdogAbortsWedgedSink(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)

	delivered := 0
	done := make(chan error, 1)
	go func() {
		_, err := replay(rd, mon, pipeline.Config{Pool: newPool(t, 2), StallTimeout: 50 * time.Millisecond},
			func(r pipeline.Result) error {
				delivered++
				if delivered == 5 {
					// Wedge well past the stall window; the watchdog fires
					// while this call is in flight.
					time.Sleep(400 * time.Millisecond)
				}
				return nil
			})
		done <- err
	}()

	select {
	case err := <-done:
		if !errors.Is(err, pipeline.ErrStalled) {
			t.Fatalf("err = %v, want ErrStalled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not abort; watchdog never fired")
	}
	if delivered < 5 {
		t.Fatalf("sink ran %d times before the stall", delivered)
	}
}

// TestWatchdogQuietOnHealthyReplay sets an aggressive stall timeout on
// a replay whose sink keeps up: the watchdog must stay silent and the
// verdict stream must be complete.
func TestWatchdogQuietOnHealthyReplay(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	capture := buildCapture(t, v)
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t, v, model)
	delivered := 0
	st, err := replay(rd, mon, pipeline.Config{Pool: newPool(t, 4), StallTimeout: 2 * time.Second},
		func(r pipeline.Result) error {
			delivered++
			return nil
		})
	if err != nil {
		t.Fatalf("healthy replay aborted: %v", err)
	}
	if int64(delivered) != st.RecordsIn || st.RecordsOut != st.RecordsIn {
		t.Fatalf("delivered %d of %d records", delivered, st.RecordsIn)
	}
}
