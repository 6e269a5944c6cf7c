package engine_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
)

// quarantineRun is what the quarantine layer did on one bus.
type quarantineRun struct {
	degraded int
	events   []obs.Event
}

// quarantineEvents keeps a result's quarantine transitions, untagged
// so lone and fleet runs compare equal.
func quarantineEvents(t *engine.Tally, res engine.Result) []obs.Event {
	var out []obs.Event
	for _, e := range t.Observe(res.Result) {
		if e.Kind == obs.EventQuarantine {
			e.Bus = ""
			out = append(out, e)
		}
	}
	return out
}

// TestFleetMembersInheritOptions pins that a fleet member is built from
// the fleet's whole option set: a member with tuned quarantine
// thresholds degrades exactly the SAs, with exactly the transitions, a
// lone session with those thresholds does, and every member runs at
// the fleet's batch size.
func TestFleetMembersInheritOptions(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 700, 250))
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), buildCapture(t, 301, 650, 200))
	tuned := ids.QuarantineConfig{SuspectAfter: 1, DegradeAfter: 2, RecoverAfter: 4}
	opts := []engine.Option{engine.WithModel(m), engine.WithWorkers(2), engine.BatchBound(5)}

	lone := func(path string, extra ...engine.Option) quarantineRun {
		t.Helper()
		tally := engine.NewTally()
		var run quarantineRun
		sum, err := engine.NewSession(path, append(append([]engine.Option{}, opts...), extra...)...).Run(func(res engine.Result) error {
			run.events = append(run.events, quarantineEvents(tally, res)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		run.degraded = sum.DegradedSAs
		return run
	}
	want := map[string]quarantineRun{
		"a": lone(pa, engine.WithQuarantineConfig(tuned)),
		"b": lone(pb, engine.WithQuarantineConfig(tuned)),
	}
	if def := lone(pa, engine.WithQuarantine(true)); reflect.DeepEqual(def, want["a"]) {
		t.Fatal("test is vacuous: tuned thresholds behave like the defaults")
	}

	fleet, err := engine.NewFleet([]string{pa, pb}, append(opts, engine.WithQuarantineConfig(tuned))...)
	if err != nil {
		t.Fatal(err)
	}
	tallies := map[string]*engine.Tally{"a": engine.NewTally(), "b": engine.NewTally()}
	got := map[string]quarantineRun{}
	sums, err := fleet.Run(func(res engine.Result) error {
		r := got[res.Bus]
		r.events = append(r.events, quarantineEvents(tallies[res.Bus], res)...)
		got[res.Bus] = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sum := range sums {
		r := got[sum.Bus]
		r.degraded = sum.DegradedSAs
		if !reflect.DeepEqual(r, want[sum.Bus]) {
			t.Errorf("bus %s: fleet member degraded %d SAs with %d transitions, lone session %d with %d",
				sum.Bus, r.degraded, len(r.events), want[sum.Bus].degraded, len(want[sum.Bus].events))
		}
	}

	// Attached members start from the same option set.
	host, err := engine.NewFleet(nil, append(opts, engine.WithQuarantineConfig(tuned))...)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	for _, bus := range []string{"a", "b"} {
		src, err := engine.OpenCaptureSource(pa)
		if err != nil {
			t.Fatal(err)
		}
		s, err := host.Attach(bus, src)
		if err != nil {
			t.Fatal(err)
		}
		batch, q := engine.MemberOptions(s)
		if batch != 5 || q == nil || *q != tuned {
			t.Errorf("member %s: batch %d quarantine %+v, want batch 5 quarantine %+v", bus, batch, q, tuned)
		}
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
}
