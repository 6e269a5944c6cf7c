package incident

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vprofile/internal/obs"
)

// Evidence is one frame's alarm-side verdict, the unit a bus stream
// feeds the correlator. Clean frames (no kind flagged) only advance
// the bus's frame count and the sweep clock — the cheap path a healthy
// fleet stays on.
type Evidence struct {
	SA uint8
	T  float64 // capture-relative seconds
	// Flagged is the set of detector families that fired on the frame,
	// before quarantine coalescing (ids.CompositeResult.Flagged).
	Flagged obs.AlarmSet
	// Suppressed marks voltage evidence coalesced by quarantine — it
	// still feeds the incident (the condition persists) but is
	// accounted separately.
	Suppressed bool
}

// maxBundleRefs bounds the flight-bundle references retained per bus
// per incident, so a long-lived incident cannot grow without bound.
const maxBundleRefs = 16

// Correlator is the streaming incident engine. Create one per fleet
// (or per standalone session) with New, register each bus with Bus,
// feed every verdict through BusStream.Observe, and read incidents,
// health and top-K back out concurrently — all accessors are safe
// against a replay in flight.
type Correlator struct {
	cfg Config

	// sweepAt is the capture time of the next due resolution sweep,
	// as float64 bits — clean frames poll it with one atomic load.
	sweepAt atomic.Uint64

	mu        sync.Mutex
	seq       int
	now       float64 // max capture time observed
	open      map[string]*Incident
	resolved  []Snapshot // ring, oldest first, ≤ cfg.KeepResolved
	lastAlarm [256]map[string]float64
	buses     map[string]*BusStream
	order     []string
	topk      *topK
}

// New builds a correlator.
func New(cfg Config) *Correlator {
	cfg = cfg.withDefaults()
	return &Correlator{
		cfg:   cfg,
		open:  make(map[string]*Incident),
		buses: make(map[string]*BusStream),
		topk:  newTopK(cfg.TopK, cfg.HalfLifeSec),
	}
}

// BusStream is one bus's handle into the correlator: the hot-path
// entry point (Observe) plus the per-bus health accumulators.
type BusStream struct {
	c    *Correlator
	name string

	frames atomic.Int64
	lastT  atomic.Uint64 // float64 bits of the newest frame time

	health  *obs.Gauge   // optional, set via BindHealthGauge
	corrupt *obs.Counter // optional, recovered-corruption source

	// Under c.mu.
	alarms      decayAcc
	extracts    decayAcc
	corrupts    decayAcc
	seenCorrupt int64
	degraded    map[uint8]bool
	drifting    map[uint8]string // SA → drift state ("warn"/"alarm")
	totalAlarms int64
}

// Bus registers (or returns) the stream for a bus name.
func (c *Correlator) Bus(name string) *BusStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.buses[name]; ok {
		return b
	}
	b := &BusStream{c: c, name: name,
		degraded: make(map[uint8]bool), drifting: make(map[uint8]string)}
	c.buses[name] = b
	c.order = append(c.order, name)
	return b
}

// BindHealthGauge points the bus's health score at a registry gauge;
// the sweep refreshes it (0–100, 100 = healthy). Takes the correlator
// lock: on a fleet, one bus binds while another's sweep may be
// reading.
func (b *BusStream) BindHealthGauge(g *obs.Gauge) {
	g.Set(100)
	b.c.mu.Lock()
	b.health = g
	b.c.mu.Unlock()
}

// BindCorruptionCounter feeds the recovering reader's
// corruption-recovery counter into the bus's health score; the sweep
// folds increments into a decayed rate.
func (b *BusStream) BindCorruptionCounter(ctr *obs.Counter) {
	b.c.mu.Lock()
	b.corrupt = ctr
	b.c.mu.Unlock()
}

// Observe folds one frame's evidence into the correlator. Safe for
// concurrent use across buses; within a bus, calls must be in record
// order (the pipeline's sink guarantees this). Clean frames cost two
// atomics and a sweep-due check.
func (b *BusStream) Observe(ev Evidence) {
	b.frames.Add(1)
	b.lastT.Store(math.Float64bits(ev.T))
	if ev.Flagged != 0 {
		b.c.observeAlarm(b, ev)
		return
	}
	if math.Float64frombits(b.c.sweepAt.Load()) <= ev.T {
		b.c.sweep(ev.T)
	}
}

// ObserveQuarantine folds a quarantine transition into the bus's
// health (degraded-SA occupancy) and escalates any open incident
// covering the SA to critical — a degraded sender is exactly the
// "this is real" signal severity routing wants.
func (b *BusStream) ObserveQuarantine(sa uint8, state string, t float64) {
	c := b.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(t)
	if state == "degraded" {
		b.degraded[sa] = true
	} else {
		delete(b.degraded, sa)
	}
	in := c.openFor(b.name, sa)
	if in == nil {
		return
	}
	if e := in.buses[b.name]; e != nil && state == "degraded" {
		e.Quarantine = state
	}
	if state == "degraded" {
		c.escalate(in, obs.SeverityCritical, t, fmt.Sprintf("SA %#02x degraded on %s", sa, b.name))
	}
}

// ObserveDrift folds a drift-detector transition into the correlator.
// A drift alarm on a sender covered by an open incident escalates it
// to critical (the profile itself is moving — whatever the alarms
// are, they will get worse); and once the same SA is drifting on ≥
// CorrelateBuses buses the covering incident is tagged Environmental:
// the fleet-wide pattern points at temperature or supply shift rather
// than a compromised node, which changes the response.
func (b *BusStream) ObserveDrift(sa uint8, state string, t float64) {
	c := b.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(t)
	if driftRank(state) == 0 {
		delete(b.drifting, sa)
		return
	}
	if driftRank(state) > driftRank(b.drifting[sa]) {
		b.drifting[sa] = state
	}
	c.applyDriftLocked(b, sa, t)
}

// applyDriftLocked pushes the bus's current drift state for sa into
// any open incident: evidence annotation, severity escalation, and
// the fleet-wide environmental check. Also re-run from the alarm path
// — a drift transition may arrive before the incident opens (both can
// happen around the same frames), so every alarm re-checks, exactly
// as quarantine degradation does.
func (c *Correlator) applyDriftLocked(b *BusStream, sa uint8, t float64) {
	state := b.drifting[sa]
	if state == "" {
		return
	}
	in := c.openFor(b.name, sa)
	if in != nil {
		if e := in.buses[b.name]; e != nil && driftRank(state) > driftRank(e.Drift) {
			e.Drift = state
		}
		if state == "alarm" {
			c.escalate(in, obs.SeverityCritical, t,
				fmt.Sprintf("SA %#02x drift alarm on %s", sa, b.name))
		}
	}
	drifting := 0
	for _, ob := range c.buses {
		if ob.drifting[sa] != "" {
			drifting++
		}
	}
	if drifting < c.cfg.CorrelateBuses {
		return
	}
	// Mark every open incident covering the SA — the drifting bus need
	// not be the one whose incident is open.
	mark := func(in *Incident) {
		if in == nil || in.Environmental {
			return
		}
		in.Environmental = true
		in.Updates++
		c.emit(obs.Event{
			TimeSec: t, Kind: obs.EventIncidentUpdate,
			Severity: in.Severity, SA: obs.U8(sa),
			Incident: in.ID, Scope: in.Scope,
			Detail: fmt.Sprintf(
				"SA %#02x drifting on %d buses: consistent with environmental shift, not attack",
				sa, drifting),
		})
	}
	mark(c.open[fleetKey(sa)])
	for name := range c.buses {
		mark(c.open[busKey(name, sa)])
	}
}

// LinkBundle attaches a flight-recorder bundle reference to the open
// incident covering (bus, sa) and returns that incident's id ("" when
// no incident is open — an alarm outside any incident window).
func (b *BusStream) LinkBundle(sa uint8, ref string) string {
	c := b.c
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.openFor(b.name, sa)
	if in == nil {
		return ""
	}
	e := in.evidence(b.name)
	if len(e.Bundles) < maxBundleRefs {
		e.Bundles = append(e.Bundles, ref)
	}
	in.Updates++
	c.emit(obs.Event{
		TimeSec: c.now, Kind: obs.EventIncidentUpdate, Bus: b.name,
		Severity: in.Severity, SA: obs.U8(sa),
		Incident: in.ID, Scope: in.Scope,
		Detail: "flight bundle " + ref,
	})
	return in.ID
}

func fleetKey(sa uint8) string           { return fmt.Sprintf("f/%02x", sa) }
func busKey(bus string, sa uint8) string { return fmt.Sprintf("b/%s/%02x", bus, sa) }

// openFor returns the open incident covering (bus, sa): the fleet
// incident for the SA if one is open, else the bus-local one.
func (c *Correlator) openFor(bus string, sa uint8) *Incident {
	if in := c.open[fleetKey(sa)]; in != nil {
		return in
	}
	return c.open[busKey(bus, sa)]
}

// advance moves the correlator clock forward (never backwards: buses
// replay concurrently and interleave only roughly in time order).
func (c *Correlator) advance(t float64) {
	if t > c.now {
		c.now = t
	}
}

// observeAlarm is the alarm-path half of Observe.
func (c *Correlator) observeAlarm(b *BusStream, ev Evidence) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(ev.T)
	half := c.cfg.HalfLifeSec
	b.alarms.add(ev.T, half)
	b.totalAlarms++
	if ev.Flagged.Has(obs.AlarmPreprocess) {
		b.extracts.add(ev.T, half)
	}
	c.topk.update(b.name, b.alarms)

	la := c.lastAlarm[ev.SA]
	if la == nil {
		la = make(map[string]float64)
		c.lastAlarm[ev.SA] = la
	}
	la[b.name] = ev.T

	in := c.open[fleetKey(ev.SA)]
	if in == nil {
		in = c.open[busKey(b.name, ev.SA)]
		if in == nil {
			in = c.openIncident(ScopeSingleBus, b.name, ev.SA, ev.T)
		}
		c.addEvidence(in, b.name, ev)
		c.maybeCorrelate(b.name, ev)
	} else {
		joined := in.buses[b.name] == nil
		c.addEvidence(in, b.name, ev)
		if joined {
			in.Updates++
			c.emit(obs.Event{
				TimeSec: ev.T, Kind: obs.EventIncidentUpdate, Bus: b.name,
				Severity: in.Severity, SA: obs.U8(ev.SA),
				Incident: in.ID, Scope: in.Scope,
				Detail: fmt.Sprintf("bus %s joined (%d buses)", b.name, len(in.buses)),
			})
		}
	}
	if in := c.openFor(b.name, ev.SA); in != nil {
		switch {
		case in.Alarms >= c.cfg.CriticalAlarms:
			c.escalate(in, obs.SeverityCritical, ev.T,
				fmt.Sprintf("%d alarms", in.Alarms))
		case b.degraded[ev.SA]:
			// The sender is quarantine-degraded; the transition may have
			// arrived before the incident opened (both can happen on the
			// same frame), so re-check on every alarm.
			c.escalate(in, obs.SeverityCritical, ev.T,
				fmt.Sprintf("SA %#02x degraded on %s", ev.SA, b.name))
		}
	}
	if b.drifting[ev.SA] != "" {
		// Same re-check for drift: the detector may have flagged the
		// SA before any incident existed to annotate.
		c.applyDriftLocked(b, ev.SA, ev.T)
	}

	if math.Float64frombits(c.sweepAt.Load()) <= c.now {
		c.sweepLocked(c.now)
	}
}

// openIncident creates and announces a new incident.
func (c *Correlator) openIncident(scope, bus string, sa uint8, t float64) *Incident {
	c.seq++
	in := &Incident{
		ID: fmt.Sprintf("INC-%04d", c.seq), seq: c.seq, Scope: scope, State: StateOpen,
		SA: sa, Severity: obs.SeverityWarning,
		OpenedAt: t, LastEvidence: t,
		buses: make(map[string]*BusEvidence),
	}
	key := fleetKey(sa)
	evBus := ""
	if scope == ScopeSingleBus {
		key = busKey(bus, sa)
		evBus = bus
	}
	c.open[key] = in
	c.emit(obs.Event{
		TimeSec: t, Kind: obs.EventIncidentOpen, Bus: evBus,
		Severity: in.Severity, SA: obs.U8(sa),
		Incident: in.ID, Scope: scope,
	})
	return in
}

// evidence returns (creating if needed) the incident's evidence slot
// for a bus.
func (in *Incident) evidence(bus string) *BusEvidence {
	e := in.buses[bus]
	if e == nil {
		e = &BusEvidence{Bus: bus, FirstAt: in.LastEvidence, Kinds: make(map[string]int64)}
		in.buses[bus] = e
	}
	return e
}

func (c *Correlator) addEvidence(in *Incident, bus string, ev Evidence) {
	e := in.buses[bus]
	if e == nil {
		e = &BusEvidence{Bus: bus, FirstAt: ev.T, Kinds: make(map[string]int64)}
		in.buses[bus] = e
	}
	e.Alarms++
	in.Alarms++
	if ev.Suppressed {
		e.Suppressed++
		in.Suppressed++
	}
	e.LastAt = ev.T
	for a, rest := ev.Flagged.Next(); a != 0; a, rest = rest.Next() {
		e.Kinds[a.Kind()]++
	}
	if ev.T > in.LastEvidence {
		in.LastEvidence = ev.T
	}
}

// maybeCorrelate checks the sliding window after a single-bus alarm:
// when the same SA has alarmed on ≥ K buses within WindowSec, every
// open single-bus incident for that SA merges into one new
// fleet-correlated incident.
func (c *Correlator) maybeCorrelate(bus string, ev Evidence) {
	la := c.lastAlarm[ev.SA]
	n := 0
	for _, t := range la {
		if t >= ev.T-c.cfg.WindowSec {
			n++
		}
	}
	if n < c.cfg.CorrelateBuses {
		return
	}

	c.seq++
	fi := &Incident{
		ID: fmt.Sprintf("INC-%04d", c.seq), seq: c.seq, Scope: ScopeFleet, State: StateOpen,
		SA: ev.SA, Severity: obs.SeverityWarning,
		OpenedAt: ev.T, LastEvidence: ev.T,
		buses: make(map[string]*BusEvidence),
	}
	// Absorb the per-bus incidents: their evidence moves wholesale,
	// their lifecycle closes with a pointer at the survivor, and the
	// fleet incident inherits the earliest open time — the condition
	// started when the first bus saw it, not when correlation tripped.
	absorbed := c.openByID(func(in *Incident) bool { return in.Scope == ScopeSingleBus && in.SA == ev.SA })
	for _, key := range absorbed {
		si := c.open[key]
		for _, e := range si.buses {
			fi.buses[e.Bus] = e
		}
		fi.Alarms += si.Alarms
		fi.Suppressed += si.Suppressed
		if si.OpenedAt < fi.OpenedAt {
			fi.OpenedAt = si.OpenedAt
		}
		if severityRank(si.Severity) > severityRank(fi.Severity) {
			fi.Severity = si.Severity
		}
		c.resolveLocked(key, ev.T, "correlated into "+fi.ID, "correlated into "+fi.ID)
	}
	c.open[fleetKey(ev.SA)] = fi
	c.emit(obs.Event{
		TimeSec: ev.T, Kind: obs.EventIncidentOpen,
		Severity: fi.Severity, SA: obs.U8(ev.SA),
		Incident: fi.ID, Scope: ScopeFleet,
		Detail: fmt.Sprintf("SA %#02x alarming on %d buses within %.1fs: %s",
			ev.SA, len(fi.buses), c.cfg.WindowSec, strings.Join(busNames(fi), ",")),
	})
}

func busNames(in *Incident) []string {
	out := make([]string, 0, len(in.buses))
	for name := range in.buses {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// escalate raises an incident's severity (escalate-only) and emits an
// update when it changed.
func (c *Correlator) escalate(in *Incident, severity string, t float64, why string) {
	if severityRank(severity) <= severityRank(in.Severity) {
		return
	}
	in.Severity = severity
	in.Updates++
	c.emit(obs.Event{
		TimeSec: t, Kind: obs.EventIncidentUpdate,
		Severity: severity, SA: obs.U8(in.SA),
		Incident: in.ID, Scope: in.Scope,
		Detail: "escalated to " + severity + ": " + why,
	})
}

// openByID returns the keys of the open incidents keep selects, in
// incident-ID (creation) order, so which incidents resolve first — the
// order of their resolve events and what the bounded resolved ring
// keeps — never follows map iteration order.
func (c *Correlator) openByID(keep func(*Incident) bool) []string {
	var keys []string
	for key, in := range c.open {
		if keep(in) {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return c.open[keys[i]].seq < c.open[keys[j]].seq })
	return keys
}

// resolveLocked closes the open incident under key at capture time at,
// retires it into the resolved ring and announces it.
func (c *Correlator) resolveLocked(key string, at float64, resolution, detail string) {
	in := c.open[key]
	delete(c.open, key)
	in.State = StateResolved
	in.ResolvedAt = at
	in.Resolution = resolution
	c.retire(in)
	evBus := ""
	if in.Scope == ScopeSingleBus {
		evBus = busNames(in)[0]
	}
	c.emit(obs.Event{
		TimeSec: at, Kind: obs.EventIncidentResolve, Bus: evBus,
		Severity: in.Severity, SA: obs.U8(in.SA),
		Incident: in.ID, Scope: in.Scope, Detail: detail,
	})
}

// retire moves a resolved incident into the bounded ring.
func (c *Correlator) retire(in *Incident) {
	c.resolved = append(c.resolved, in.snapshot())
	if len(c.resolved) > c.cfg.KeepResolved {
		c.resolved = c.resolved[len(c.resolved)-c.cfg.KeepResolved:]
	}
}

// sweep is the out-of-line lock acquisition for the clean-frame path.
func (c *Correlator) sweep(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(t)
	if math.Float64frombits(c.sweepAt.Load()) > c.now {
		return // another goroutine swept first
	}
	c.sweepLocked(c.now)
}

// sweepInterval spaces resolution sweeps and health refreshes: often
// enough that a resolved incident or a sagging health score shows up
// promptly, rarely enough that the per-frame check stays one atomic
// load.
func (c *Correlator) sweepInterval() float64 {
	iv := c.cfg.QuietSec / 5
	if iv < 0.2 {
		iv = 0.2
	}
	return iv
}

// sweepLocked resolves quiet incidents and refreshes per-bus health.
func (c *Correlator) sweepLocked(now float64) {
	for _, key := range c.openByID(func(in *Incident) bool { return now-in.LastEvidence > c.cfg.QuietSec }) {
		in := c.open[key]
		c.resolveLocked(key, now, "quiet", fmt.Sprintf("quiet for %.1fs (%d alarms over %d buses)",
			c.cfg.QuietSec, in.Alarms, len(in.buses)))
	}
	for _, name := range c.order {
		b := c.buses[name]
		if b.corrupt != nil {
			if cur := b.corrupt.Value(); cur > b.seenCorrupt {
				b.corrupts.v = b.corrupts.at(now, c.cfg.HalfLifeSec) + float64(cur-b.seenCorrupt)
				b.corrupts.t = now
				b.seenCorrupt = cur
			}
		}
		if b.health != nil {
			b.health.Set(int64(math.Round(b.healthLocked(now))))
		}
	}
	c.sweepAt.Store(math.Float64bits(now + c.sweepInterval()))
}

// healthLocked computes the bus's health score at time now: 100 minus
// a weighted sum of the decayed alarm, extract-failure and
// recovered-corruption rates (events/second, half-life HalfLifeSec)
// and the current degraded-SA occupancy, clamped to [0, 100].
//
//	health = 100 − min(100, 4·alarm_rate + 6·extract_fail_rate
//	                        + 8·corruption_rate + 15·degraded_SAs)
func (b *BusStream) healthLocked(now float64) float64 {
	half := b.c.cfg.HalfLifeSec
	penalty := 4*b.alarms.rate(now, half) +
		6*b.extracts.rate(now, half) +
		8*b.corrupts.rate(now, half) +
		15*float64(len(b.degraded))
	if penalty > 100 {
		penalty = 100
	}
	return 100 - penalty
}

// emit sends a lifecycle event to the configured sink, if any.
func (c *Correlator) emit(e obs.Event) {
	if c.cfg.Emit != nil {
		c.cfg.Emit(e)
	}
}

// CloseOut resolves every still-open incident (resolution
// "end-of-run"), refreshes health one last time, and returns the full
// incident history — the bounded resolved ring plus the just-closed —
// ordered by open time. Call it once, after the last verdict.
func (c *Correlator) CloseOut() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range c.openByID(func(*Incident) bool { return true }) {
		in := c.open[key]
		c.resolveLocked(key, c.now, "end-of-run", fmt.Sprintf("end-of-run (%d alarms over %d buses)",
			in.Alarms, len(in.buses)))
	}
	for _, name := range c.order {
		b := c.buses[name]
		if b.health != nil {
			b.health.Set(int64(math.Round(b.healthLocked(c.now))))
		}
	}
	out := append([]Snapshot(nil), c.resolved...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].OpenedAt != out[j].OpenedAt {
			return out[i].OpenedAt < out[j].OpenedAt
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Incidents snapshots the open and retained-resolved incidents,
// newest last. Safe concurrently with a replay in flight.
func (c *Correlator) Incidents() (open, resolved []Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, in := range c.open {
		open = append(open, in.snapshot())
	}
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	resolved = append([]Snapshot(nil), c.resolved...)
	return open, resolved
}

// BusHealth is one bus's health summary, the /fleet overview row.
type BusHealth struct {
	Bus    string  `json:"bus"`
	Health float64 `json:"health"`
	Frames int64   `json:"frames"`
	LastAt float64 `json:"last_at"`
	Alarms int64   `json:"alarms"`
	// Decayed per-second rates behind the score, for operators who
	// want to see why a score sagged.
	AlarmRate   float64 `json:"alarm_rate"`
	ExtractRate float64 `json:"extract_fail_rate"`
	CorruptRate float64 `json:"corruption_rate"`
	DegradedSAs int     `json:"degraded_sas"`
}

// Health snapshots every bus's health, in registration order.
func (c *Correlator) Health() []BusHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	half := c.cfg.HalfLifeSec
	out := make([]BusHealth, 0, len(c.order))
	for _, name := range c.order {
		b := c.buses[name]
		out = append(out, BusHealth{
			Bus:         name,
			Health:      math.Round(b.healthLocked(c.now)*10) / 10,
			Frames:      b.frames.Load(),
			LastAt:      math.Float64frombits(b.lastT.Load()),
			Alarms:      b.totalAlarms,
			AlarmRate:   b.alarms.rate(c.now, half),
			ExtractRate: b.extracts.rate(c.now, half),
			CorruptRate: b.corrupts.rate(c.now, half),
			DegradedSAs: len(b.degraded),
		})
	}
	return out
}

// TopK snapshots the noisiest-buses rollup, noisiest first.
func (c *Correlator) TopK() []TopEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topk.list(c.now)
}

// Now returns the correlator clock (max capture time observed).
func (c *Correlator) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
