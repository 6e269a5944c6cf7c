package incident_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
)

// alarm builds a voltage-alarm evidence at time t for sa.
func alarm(sa uint8, t float64) incident.Evidence {
	return incident.Evidence{SA: sa, T: t, Flagged: obs.AlarmVoltage}
}

func clean(sa uint8, t float64) incident.Evidence {
	return incident.Evidence{SA: sa, T: t}
}

func TestSingleBusLifecycle(t *testing.T) {
	var events []obs.Event
	c := incident.New(incident.Config{
		QuietSec: 2,
		Emit:     func(e obs.Event) { events = append(events, e) },
	})
	b := c.Bus("bus0")

	b.Observe(clean(0x31, 0.5))
	b.Observe(alarm(0x31, 1.0))
	b.Observe(alarm(0x31, 1.1))
	b.Observe(alarm(0x31, 1.2))

	open, resolved := c.Incidents()
	if len(open) != 1 || len(resolved) != 0 {
		t.Fatalf("after alarms: open=%d resolved=%d, want 1/0", len(open), len(resolved))
	}
	in := open[0]
	if in.Scope != incident.ScopeSingleBus || in.State != incident.StateOpen {
		t.Fatalf("scope/state = %s/%s", in.Scope, in.State)
	}
	if in.SA != 0x31 || in.Alarms != 3 || in.OpenedAt != 1.0 || in.LastEvidence != 1.2 {
		t.Fatalf("incident fields off: %+v", in.Incident)
	}
	if got := in.BusNames(); len(got) != 1 || got[0] != "bus0" {
		t.Fatalf("buses = %v", got)
	}
	if in.BusEvidence[0].Kinds[obs.EventVoltage] != 3 {
		t.Fatalf("kinds = %v", in.BusEvidence[0].Kinds)
	}

	// Quiet traffic past the quiet window resolves it at a sweep.
	for ts := 1.5; ts < 5.0; ts += 0.1 {
		b.Observe(clean(0x10, ts))
	}
	open, resolved = c.Incidents()
	if len(open) != 0 || len(resolved) != 1 {
		t.Fatalf("after quiet: open=%d resolved=%d, want 0/1", len(open), len(resolved))
	}
	if resolved[0].Resolution != "quiet" || resolved[0].State != incident.StateResolved {
		t.Fatalf("resolution = %q state = %q", resolved[0].Resolution, resolved[0].State)
	}

	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
		if e.Incident == "" || e.Scope == "" {
			t.Fatalf("lifecycle event missing incident/scope: %+v", e)
		}
	}
	want := []string{obs.EventIncidentOpen, obs.EventIncidentResolve}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
}

func TestFleetCorrelation(t *testing.T) {
	var events []obs.Event
	c := incident.New(incident.Config{
		CorrelateBuses: 3,
		WindowSec:      5,
		Emit:           func(e obs.Event) { events = append(events, e) },
	})
	buses := []*incident.BusStream{c.Bus("bus0"), c.Bus("bus1"), c.Bus("bus2"), c.Bus("bus3")}

	// The same SA alarms on three of four buses within the window; an
	// unrelated SA alarms on the fourth.
	buses[0].Observe(alarm(0x42, 1.0))
	buses[1].Observe(alarm(0x42, 1.5))
	buses[3].Observe(alarm(0x99, 1.7))
	buses[2].Observe(alarm(0x42, 2.0)) // third bus: correlation trips

	open, resolved := c.Incidents()
	var fleet []incident.Snapshot
	for _, s := range open {
		if s.Scope == incident.ScopeFleet {
			fleet = append(fleet, s)
		}
	}
	if len(fleet) != 1 {
		t.Fatalf("fleet incidents = %d, want 1 (open: %+v)", len(fleet), open)
	}
	fi := fleet[0]
	if fi.SA != 0x42 || fi.Alarms != 3 {
		t.Fatalf("fleet incident = %+v", fi.Incident)
	}
	if fi.OpenedAt != 1.0 {
		t.Fatalf("fleet incident inherits earliest open time, got %v", fi.OpenedAt)
	}
	if got := fi.BusNames(); strings.Join(got, ",") != "bus0,bus1,bus2" {
		t.Fatalf("fleet evidence buses = %v", got)
	}
	// The unrelated SA stays a single-bus incident.
	if len(open) != 2 {
		t.Fatalf("open = %d, want fleet + one single-bus", len(open))
	}
	// The merged single-bus incidents resolved with a pointer at the
	// survivor.
	if len(resolved) != 3 {
		t.Fatalf("resolved = %d, want 3 merged", len(resolved))
	}
	for _, s := range resolved {
		if !strings.HasPrefix(s.Resolution, "correlated into ") {
			t.Fatalf("merged resolution = %q", s.Resolution)
		}
		if s.Resolution != "correlated into "+fi.ID {
			t.Fatalf("merged into %q, want %q", s.Resolution, fi.ID)
		}
	}

	// Later alarms for the SA attach to the fleet incident — on a new
	// bus too — without opening anything new.
	buses[3].Observe(alarm(0x42, 2.5))
	open, _ = c.Incidents()
	fleet = fleet[:0]
	for _, s := range open {
		if s.Scope == incident.ScopeFleet {
			fleet = append(fleet, s)
		}
	}
	if len(fleet) != 1 || fleet[0].Alarms != 4 || len(fleet[0].BusEvidence) != 4 {
		t.Fatalf("after join: %+v", fleet)
	}

	var opens int
	for _, e := range events {
		if e.Kind == obs.EventIncidentOpen && e.Scope == incident.ScopeFleet {
			opens++
		}
	}
	if opens != 1 {
		t.Fatalf("fleet incident_open events = %d, want exactly 1", opens)
	}
}

func TestSeverityEscalation(t *testing.T) {
	c := incident.New(incident.Config{CriticalAlarms: 5})
	b := c.Bus("bus0")
	for i := 0; i < 4; i++ {
		b.Observe(alarm(0x31, 1.0+float64(i)/10))
	}
	open, _ := c.Incidents()
	if open[0].Severity != obs.SeverityWarning {
		t.Fatalf("below threshold: severity = %s", open[0].Severity)
	}
	b.Observe(alarm(0x31, 1.4))
	open, _ = c.Incidents()
	if open[0].Severity != obs.SeverityCritical {
		t.Fatalf("at threshold: severity = %s", open[0].Severity)
	}

	// Quarantine degradation escalates immediately, and never
	// downgrades.
	c2 := incident.New(incident.Config{})
	b2 := c2.Bus("bus0")
	b2.Observe(alarm(0x31, 1.0))
	b2.ObserveQuarantine(0x31, "degraded", 1.1)
	open, _ = c2.Incidents()
	if open[0].Severity != obs.SeverityCritical {
		t.Fatalf("degraded SA: severity = %s", open[0].Severity)
	}
	if open[0].BusEvidence[0].Quarantine != "degraded" {
		t.Fatalf("evidence quarantine = %q", open[0].BusEvidence[0].Quarantine)
	}
	b2.ObserveQuarantine(0x31, "healthy", 1.2)
	open, _ = c2.Incidents()
	if open[0].Severity != obs.SeverityCritical {
		t.Fatalf("severity downgraded on recovery")
	}
}

func TestLinkBundle(t *testing.T) {
	c := incident.New(incident.Config{})
	b := c.Bus("bus0")
	if id := b.LinkBundle(0x31, "bundle-0001-dead"); id != "" {
		t.Fatalf("bundle linked with no incident open: %q", id)
	}
	b.Observe(alarm(0x31, 1.0))
	id := b.LinkBundle(0x31, "bundle-0001-dead")
	if id == "" {
		t.Fatal("bundle not linked to open incident")
	}
	open, _ := c.Incidents()
	if open[0].ID != id {
		t.Fatalf("linked to %q, open is %q", id, open[0].ID)
	}
	if got := open[0].BusEvidence[0].Bundles; len(got) != 1 || got[0] != "bundle-0001-dead" {
		t.Fatalf("bundles = %v", got)
	}
	// The per-bus reference list is bounded.
	for i := 0; i < 40; i++ {
		b.LinkBundle(0x31, fmt.Sprintf("bundle-%04d-beef", i+2))
	}
	open, _ = c.Incidents()
	if got := len(open[0].BusEvidence[0].Bundles); got > 16 {
		t.Fatalf("bundle refs unbounded: %d", got)
	}
}

func TestCloseOut(t *testing.T) {
	c := incident.New(incident.Config{CorrelateBuses: 2})
	b0, b1 := c.Bus("bus0"), c.Bus("bus1")
	b0.Observe(alarm(0x31, 1.0))
	b1.Observe(alarm(0x31, 1.5)) // correlates
	b0.Observe(alarm(0x99, 2.0)) // separate single-bus
	all := c.CloseOut()
	// Chronological: two merged singles (wait — 0x31 on bus0 opened at
	// 1.0, on bus1 at 1.5, both merged at 1.5) + fleet (opened_at 1.0)
	// + the 0x99 single.
	if len(all) != 4 {
		t.Fatalf("history = %d incidents, want 4: %+v", len(all), all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].OpenedAt < all[i-1].OpenedAt {
			t.Fatalf("history not chronological: %+v", all)
		}
	}
	var endOfRun int
	for _, s := range all {
		if s.State != incident.StateResolved {
			t.Fatalf("unresolved after CloseOut: %+v", s)
		}
		if s.Resolution == "end-of-run" {
			endOfRun++
		}
	}
	if endOfRun != 2 {
		t.Fatalf("end-of-run resolutions = %d, want 2", endOfRun)
	}
	open, _ := c.Incidents()
	if len(open) != 0 {
		t.Fatalf("still open after CloseOut: %+v", open)
	}

	if got := incident.FormatTable(all); !strings.Contains(got, "fleet-correlated") {
		t.Fatalf("table missing fleet incident:\n%s", got)
	}
	if got := incident.FormatTable(nil); got != "no incidents\n" {
		t.Fatalf("empty table = %q", got)
	}
}

// TestResolveInIDOrder opens incidents on many senders or buses at
// once and resolves them together — quiet, end of run, or absorbed
// into a fleet incident: the resolve events must come out in
// incident-ID order, and the bounded resolved ring must keep the
// newest IDs, not whichever the open map yielded last.
func TestResolveInIDOrder(t *testing.T) {
	const n, keep = 40, 8
	ids := func(from, to int) []string {
		var out []string
		for i := from; i <= to; i++ {
			out = append(out, fmt.Sprintf("INC-%04d", i))
		}
		return out
	}
	for _, how := range []string{"quiet", "end-of-run", "correlated"} {
		t.Run(how, func(t *testing.T) {
			var resolves []string
			c := incident.New(incident.Config{
				QuietSec: 2, KeepResolved: keep, CorrelateBuses: n,
				Emit: func(e obs.Event) {
					if e.Kind == obs.EventIncidentResolve {
						resolves = append(resolves, e.Incident)
					}
				},
			})
			if how == "correlated" {
				// One sender alarming on n buses, the last-named first:
				// the n-th bus trips correlation and its single-bus
				// incidents all resolve into the fleet one at once.
				for i := n - 1; i >= 0; i-- {
					c.Bus(fmt.Sprintf("bus%02d", i)).Observe(alarm(0x42, 1.0))
				}
			} else {
				b := c.Bus("bus0")
				for i := 0; i < n; i++ {
					b.Observe(alarm(uint8(0x40+i), 1.0))
				}
				if how == "quiet" {
					for ts := 1.5; ts < 5.0; ts += 0.1 {
						b.Observe(clean(0x10, ts))
					}
				} else {
					c.CloseOut()
				}
			}
			want := ids(1, n)
			if strings.Join(resolves, ",") != strings.Join(want, ",") {
				t.Fatalf("resolve events %v, want %v", resolves, want)
			}
			_, resolved := c.Incidents()
			var kept []string
			for _, s := range resolved {
				kept = append(kept, s.ID)
			}
			if strings.Join(kept, ",") != strings.Join(want[n-keep:], ",") {
				t.Fatalf("resolved ring keeps %v, want %v", kept, want[n-keep:])
			}
		})
	}
}

func TestHealthScore(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("vprofile_bus_health_score", "test")
	corrupt := reg.Counter("vprofile_capture_corruptions_recovered_total", "test")

	c := incident.New(incident.Config{HalfLifeSec: 10, QuietSec: 2})
	b := c.Bus("bus0")
	b.BindHealthGauge(g)
	b.BindCorruptionCounter(corrupt)
	if g.Value() != 100 {
		t.Fatalf("initial health = %d", g.Value())
	}

	h := c.Health()
	if len(h) != 1 || h[0].Health != 100 {
		t.Fatalf("quiet bus health = %+v", h)
	}

	// A sustained alarm burst drags the score down...
	for ts := 1.0; ts < 3.0; ts += 0.01 {
		b.Observe(alarm(0x31, ts))
	}
	h = c.Health()
	if h[0].Health >= 100 {
		t.Fatalf("health unchanged by alarms: %+v", h[0])
	}
	if h[0].AlarmRate <= 0 {
		t.Fatalf("alarm rate = %v", h[0].AlarmRate)
	}
	low := h[0].Health

	// ...degraded quarantine occupancy more so...
	b.ObserveQuarantine(0x31, "degraded", 3.0)
	h = c.Health()
	if h[0].Health >= low || h[0].DegradedSAs != 1 {
		t.Fatalf("degraded SA not reflected: %+v", h[0])
	}

	// ...and long quiet decays it back toward 100.
	corrupt.Add(3) // folded in at the next sweep
	b.ObserveQuarantine(0x31, "healthy", 3.1)
	for ts := 4.0; ts < 120.0; ts += 0.5 {
		b.Observe(clean(0x10, ts))
	}
	h = c.Health()
	if h[0].Health < 99 {
		t.Fatalf("health did not recover after quiet: %+v", h[0])
	}
	if h[0].CorruptRate < 0 {
		t.Fatalf("corrupt rate = %v", h[0].CorruptRate)
	}
	// The sweep kept the gauge in step.
	if g.Value() < 99 {
		t.Fatalf("health gauge stale: %d", g.Value())
	}
}

func TestTopK(t *testing.T) {
	c := incident.New(incident.Config{TopK: 3, HalfLifeSec: 10})
	// Six buses with strictly increasing noise; only the three
	// noisiest survive the bounded heap.
	for i := 0; i < 6; i++ {
		b := c.Bus(fmt.Sprintf("bus%d", i))
		for j := 0; j <= i*3; j++ {
			b.Observe(alarm(0x31, 1.0+float64(j)*0.01))
		}
	}
	top := c.TopK()
	if len(top) != 3 {
		t.Fatalf("topk = %d entries, want 3", len(top))
	}
	if top[0].Bus != "bus5" || top[1].Bus != "bus4" || top[2].Bus != "bus3" {
		t.Fatalf("topk order = %+v", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("topk not descending: %+v", top)
		}
	}
	// A quiet bus heating up displaces the coldest entry.
	b0 := c.Bus("bus0")
	for j := 0; j < 40; j++ {
		b0.Observe(alarm(0x31, 2.0+float64(j)*0.01))
	}
	top = c.TopK()
	if top[0].Bus != "bus0" {
		t.Fatalf("hot bus did not displace: %+v", top)
	}
}

func TestDecayRate(t *testing.T) {
	// At steady state r events/sec with half-life h, the accumulator
	// settles at r·h/ln2, so the rate estimate converges to r.
	c := incident.New(incident.Config{HalfLifeSec: 5, QuietSec: 1e9})
	b := c.Bus("bus0")
	r := 20.0
	for ts := 0.0; ts < 60.0; ts += 1 / r {
		b.Observe(alarm(0x31, ts))
	}
	h := c.Health()
	if math.Abs(h[0].AlarmRate-r)/r > 0.1 {
		t.Fatalf("steady-state rate = %v, want ≈%v", h[0].AlarmRate, r)
	}
}

// TestConcurrentScrapes races a four-bus replay feeding the correlator
// against /fleet, /fleet/incidents and /fleet/topk scrapes — the
// mid-run observability path. Run under -race this is the data-race
// proof for the snapshot accessors.
func TestConcurrentScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	c := incident.New(incident.Config{CorrelateBuses: 2, QuietSec: 0.5})
	srv, err := obs.Serve("127.0.0.1:0", reg, c.Routes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := c.Bus(fmt.Sprintf("bus%d", i))
			b.BindHealthGauge(reg.Gauge(fmt.Sprintf("health_bus%d", i), "test"))
			for j := 0; j < 2000; j++ {
				ts := float64(j) * 0.005
				switch {
				case j%7 == 0:
					b.Observe(alarm(0x42, ts)) // shared SA: correlates
				case j%13 == 0:
					b.Observe(alarm(uint8(0x60+i), ts))
					b.LinkBundle(uint8(0x60+i), "bundle-0001-feed")
				default:
					b.Observe(clean(0x10, ts))
				}
				if j%211 == 0 {
					b.ObserveQuarantine(0x42, "degraded", ts)
				}
			}
		}(i)
	}
	for _, path := range []string{"/fleet", "/fleet/incidents", "/fleet/topk"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					t.Errorf("%s: invalid JSON: %.120s", path, body)
					return
				}
			}
		}(path)
	}
	wg.Wait()

	// After the dust settles the shared SA must have produced exactly
	// one fleet-correlated incident chain (re-opens after quiet are
	// allowed; overlapping fleet incidents for one SA are not).
	all := c.CloseOut()
	if len(all) == 0 {
		t.Fatal("no incidents out of a noisy four-bus run")
	}
	for i, s := range all {
		for j := i + 1; j < len(all); j++ {
			o := all[j]
			if s.Scope == incident.ScopeFleet && o.Scope == incident.ScopeFleet &&
				s.SA == o.SA && o.OpenedAt < s.ResolvedAt && s.OpenedAt < o.ResolvedAt &&
				!strings.HasPrefix(s.Resolution, "correlated") && !strings.HasPrefix(o.Resolution, "correlated") {
				t.Fatalf("overlapping fleet incidents for SA %#x: %+v / %+v", s.SA, s.Incident, o.Incident)
			}
		}
	}
}

func TestObserveDriftEscalatesOpenIncident(t *testing.T) {
	var events []obs.Event
	c := incident.New(incident.Config{
		Emit: func(e obs.Event) { events = append(events, e) },
	})
	b := c.Bus("bus0")

	b.Observe(alarm(0x31, 1.0))
	b.Observe(alarm(0x31, 1.1))
	open, _ := c.Incidents()
	if len(open) != 1 || open[0].Severity != obs.SeverityWarning {
		t.Fatalf("setup: open=%d severity=%v", len(open), open)
	}

	// A drift warn annotates the evidence but does not escalate.
	b.ObserveDrift(0x31, "warn", 1.2)
	open, _ = c.Incidents()
	if open[0].Severity != obs.SeverityWarning {
		t.Fatalf("drift warn escalated: %v", open[0].Severity)
	}
	if open[0].BusEvidence[0].Drift != "warn" {
		t.Fatalf("evidence drift = %q, want warn", open[0].BusEvidence[0].Drift)
	}

	// A drift alarm escalates to critical.
	b.ObserveDrift(0x31, "alarm", 1.3)
	open, _ = c.Incidents()
	if open[0].Severity != obs.SeverityCritical {
		t.Fatalf("drift alarm did not escalate: %v", open[0].Severity)
	}
	if open[0].BusEvidence[0].Drift != "alarm" {
		t.Fatalf("evidence drift = %q, want alarm", open[0].BusEvidence[0].Drift)
	}
	var sawEscalation bool
	for _, e := range events {
		if e.Kind == obs.EventIncidentUpdate && strings.Contains(e.Detail, "drift alarm") {
			sawEscalation = true
		}
	}
	if !sawEscalation {
		t.Fatal("no drift-alarm escalation update event")
	}
}

func TestObserveDriftBeforeIncidentRechecksOnAlarm(t *testing.T) {
	c := incident.New(incident.Config{})
	b := c.Bus("bus0")

	// Drift transition arrives before any incident exists.
	b.ObserveDrift(0x31, "alarm", 0.5)
	open, _ := c.Incidents()
	if len(open) != 0 {
		t.Fatalf("drift alone opened an incident: %v", open)
	}

	// The first alarms open an incident; the alarm-path re-check must
	// pick the standing drift state up.
	b.Observe(alarm(0x31, 1.0))
	open, _ = c.Incidents()
	if len(open) != 1 {
		t.Fatalf("open = %d, want 1", len(open))
	}
	if open[0].Severity != obs.SeverityCritical {
		t.Fatalf("severity = %v, want critical from standing drift alarm", open[0].Severity)
	}
	if open[0].BusEvidence[0].Drift != "alarm" {
		t.Fatalf("evidence drift = %q, want alarm", open[0].BusEvidence[0].Drift)
	}
}

func TestFleetWideDriftMarksEnvironmental(t *testing.T) {
	var events []obs.Event
	c := incident.New(incident.Config{
		CorrelateBuses: 2,
		Emit:           func(e obs.Event) { events = append(events, e) },
	})
	b0, b1 := c.Bus("bus0"), c.Bus("bus1")

	b0.Observe(alarm(0x31, 1.0))
	b0.ObserveDrift(0x31, "warn", 1.1)
	open, _ := c.Incidents()
	if open[0].Environmental {
		t.Fatal("single-bus drift marked environmental")
	}

	// Same SA starts drifting on a second bus: environmental evidence.
	b1.ObserveDrift(0x31, "warn", 1.5)
	open, _ = c.Incidents()
	if !open[0].Environmental {
		t.Fatal("fleet-wide drift did not mark the incident environmental")
	}
	var sawEnv bool
	for _, e := range events {
		if e.Kind == obs.EventIncidentUpdate && strings.Contains(e.Detail, "environmental") {
			sawEnv = true
		}
	}
	if !sawEnv {
		t.Fatal("no environmental update event emitted")
	}

	// Drift clearing (model swap resets detectors) removes the SA from
	// the bus's drifting set without reopening anything.
	b0.ObserveDrift(0x31, "ok", 2.0)
	b1.ObserveDrift(0x31, "ok", 2.0)
	open, _ = c.Incidents()
	if len(open) != 1 || !open[0].Environmental {
		t.Fatalf("clearing drift rewrote incident state: %v", open)
	}
}
