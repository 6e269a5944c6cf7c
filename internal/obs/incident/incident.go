// Package incident is the fleet-level observability layer: it
// consumes the per-bus verdict/alarm stream a fleet replay produces
// and turns raw per-frame alarms into first-class incidents —
// stateful objects with a lifecycle (open → updating → resolved after
// a quiet window), a correlation scope, severity and per-bus
// evidence. Ten thousand counter increments are not something an
// operator can page on; "the same spoofed source address is alarming
// on four buses at once, since t=2.1s, with these flight bundles" is.
//
// Correlation follows the Viden insight that attributing alarms to a
// root cause is what makes detection actionable: the same source
// address alarming on ≥ CorrelateBuses buses within a sliding window
// is one fleet-correlated incident (a spoofed SA visible across the
// fleet), while isolated flapping stays a single-bus incident (one
// flaky ECU). On top of the incident stream the package maintains a
// per-bus health score (a decaying composite of alarm rate,
// extract-failure rate, recovered-corruption rate and quarantine
// occupancy) and a streaming top-K noisiest-buses rollup (bounded
// heap, O(log K) per update), all served live from /fleet endpoints
// on the observability server.
//
// All timestamps are capture-relative seconds — the time base every
// bus of a replayed fleet shares — so incident boundaries are
// properties of the traffic, not of host scheduling.
package incident

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vprofile/internal/obs"
)

// Incident scopes.
const (
	ScopeSingleBus = "single-bus"       // isolated flapping on one bus
	ScopeFleet     = "fleet-correlated" // same SA alarming on ≥K buses
)

// Incident states.
const (
	StateOpen     = "open"
	StateResolved = "resolved"
)

// Config parameterises the correlator. The zero value is usable:
// every field defaults as documented.
type Config struct {
	// CorrelateBuses is K: the number of distinct buses on which the
	// same SA must alarm within WindowSec for their incidents to merge
	// into one fleet-correlated incident (default 2).
	CorrelateBuses int
	// WindowSec is the sliding correlation window in capture seconds
	// (default 5).
	WindowSec float64
	// QuietSec resolves an open incident once no evidence arrived for
	// this long, in capture seconds (default 10).
	QuietSec float64
	// HalfLifeSec is the decay half-life of the health-score rate
	// estimators and the top-K noise scores (default 10).
	HalfLifeSec float64
	// TopK bounds the noisiest-buses rollup (default 8).
	TopK int
	// KeepResolved bounds the resolved incidents retained for
	// /fleet/incidents and the end-of-run table (default 64, oldest
	// evicted first).
	KeepResolved int
	// CriticalAlarms escalates an incident's severity to critical once
	// its total alarm evidence (suppressed included) reaches this
	// count (default 150). Quarantine degradation of an involved SA
	// escalates immediately regardless.
	CriticalAlarms int64
	// Emit, when non-nil, receives one structured event per lifecycle
	// step (EventIncidentOpen/Update/Resolve). Errors are the sink's
	// problem: a full event log must not stop correlation.
	Emit func(obs.Event)
}

func (c Config) withDefaults() Config {
	if c.CorrelateBuses <= 0 {
		c.CorrelateBuses = 2
	}
	if c.WindowSec <= 0 {
		c.WindowSec = 5
	}
	if c.QuietSec <= 0 {
		c.QuietSec = 10
	}
	if c.HalfLifeSec <= 0 {
		c.HalfLifeSec = 10
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.KeepResolved <= 0 {
		c.KeepResolved = 64
	}
	if c.CriticalAlarms <= 0 {
		c.CriticalAlarms = 150
	}
	return c
}

// BusEvidence is one bus's share of an incident.
type BusEvidence struct {
	Bus        string  `json:"bus"`
	Alarms     int64   `json:"alarms"`
	Suppressed int64   `json:"suppressed,omitempty"`
	FirstAt    float64 `json:"first_at"`
	LastAt     float64 `json:"last_at"`
	// Kinds counts the alarm families observed (voltage, preprocess,
	// timing, transport).
	Kinds map[string]int64 `json:"kinds"`
	// Quarantine is the worst quarantine state an involved SA reached
	// on this bus while the incident was open ("" if none).
	Quarantine string `json:"quarantine,omitempty"`
	// Drift is the worst drift-detector state the SA reached on this
	// bus while the incident was open ("" if none, else "warn" or
	// "alarm") — a drifting profile behind the alarms changes how an
	// operator reads them.
	Drift string `json:"drift,omitempty"`
	// Bundles lists the flight-recorder bundles frozen on this bus
	// while the incident was open (bundle directory names).
	Bundles []string `json:"bundles,omitempty"`
}

// Incident is one correlated, deduplicated alarm condition. Fields
// are mutated only under the correlator's lock; Snapshot returns a
// deep copy safe to render concurrently with the replay.
type Incident struct {
	ID       string  `json:"id"`
	Scope    string  `json:"scope"`
	State    string  `json:"state"`
	SA       uint8   `json:"sa"`
	Severity string  `json:"severity"`
	OpenedAt float64 `json:"opened_at"`
	// LastEvidence is the newest alarm folded in; ResolvedAt is set
	// once the incident resolves (quiet window or end of run).
	LastEvidence float64 `json:"last_evidence"`
	ResolvedAt   float64 `json:"resolved_at,omitempty"`
	// Resolution says why the incident closed: "quiet" (the quiet
	// window elapsed), "end-of-run", or "correlated into INC-xxxx"
	// when a single-bus incident merged into a fleet one.
	Resolution string `json:"resolution,omitempty"`
	// Alarms and Suppressed total the evidence across buses
	// (suppressed = alarms coalesced by quarantine, a subset of the
	// sender's raw evidence, counted separately).
	Alarms     int64 `json:"alarms"`
	Suppressed int64 `json:"suppressed,omitempty"`
	// Updates counts lifecycle changes after open (escalations, buses
	// joining, bundle links).
	Updates int `json:"updates"`
	// Environmental is set when the incident's SA is drifting on ≥
	// CorrelateBuses buses at once: the same sender's voltage profile
	// moving fleet-wide is evidence for an environmental shift
	// (temperature, supply) rather than a per-vehicle attack, and the
	// incident is tagged so responders triage it differently.
	Environmental bool `json:"environmental,omitempty"`

	// seq is the number in ID, for ordering past INC-9999.
	seq   int
	buses map[string]*BusEvidence
}

// Buses returns the incident's per-bus evidence sorted by bus name.
func (in *Incident) Buses() []*BusEvidence {
	out := make([]*BusEvidence, 0, len(in.buses))
	for _, e := range in.buses {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bus < out[j].Bus })
	return out
}

// snapshot deep-copies the incident for lock-free rendering.
func (in *Incident) snapshot() Snapshot {
	s := Snapshot{Incident: *in}
	s.Incident.buses = nil
	s.BusEvidence = make([]BusEvidence, 0, len(in.buses))
	for _, e := range in.Buses() {
		c := *e
		c.Kinds = make(map[string]int64, len(e.Kinds))
		for k, v := range e.Kinds {
			c.Kinds[k] = v
		}
		c.Bundles = append([]string(nil), e.Bundles...)
		s.BusEvidence = append(s.BusEvidence, c)
	}
	return s
}

// Snapshot is an immutable copy of one incident, the unit the /fleet
// endpoints serve and the end-of-run table renders.
type Snapshot struct {
	Incident
	BusEvidence []BusEvidence `json:"buses"`
}

// BusNames lists the snapshot's buses in sorted order.
func (s Snapshot) BusNames() []string {
	out := make([]string, len(s.BusEvidence))
	for i, e := range s.BusEvidence {
		out[i] = e.Bus
	}
	return out
}

// driftRank orders drift-detector states for worst-state-wins
// evidence annotation.
func driftRank(s string) int {
	switch s {
	case "alarm":
		return 2
	case "warn":
		return 1
	default:
		return 0
	}
}

// severityRank orders severities for escalate-only updates.
func severityRank(s string) int {
	switch s {
	case obs.SeverityCritical:
		return 2
	case obs.SeverityWarning:
		return 1
	default:
		return 0
	}
}

// decayAcc is an exponentially decaying event counter: each event
// adds one, and the accumulated value halves every half-life of
// capture time. At steady state an event rate r settles the value at
// r·half/ln2, so Rate inverts that to estimate events per second.
type decayAcc struct {
	v float64
	t float64
}

func (a *decayAcc) add(t, half float64) {
	a.v = a.at(t, half) + 1
	a.t = t
}

// at returns the value decayed to time t (never decaying backwards:
// fleet buses replay concurrently, so observations are only roughly
// time-ordered across buses).
func (a *decayAcc) at(t, half float64) float64 {
	if t <= a.t || a.v == 0 {
		return a.v
	}
	return a.v * math.Exp2(-(t-a.t)/half)
}

// rate estimates events per second at time t.
func (a *decayAcc) rate(t, half float64) float64 {
	return a.at(t, half) * math.Ln2 / half
}

// FormatTable renders incidents as the end-of-run table the CLIs
// print with -incidents: one row per incident, most recent evidence
// last, with per-bus alarm counts inline.
func FormatTable(incidents []Snapshot) string {
	if len(incidents) == 0 {
		return "no incidents\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-16s %4s %-8s %-9s %7s %6s %9s %9s  %s\n",
		"incident", "scope", "SA", "severity", "state", "alarms", "supp", "opened", "last", "buses")
	for _, s := range incidents {
		var buses []string
		for _, e := range s.BusEvidence {
			buses = append(buses, fmt.Sprintf("%s(%d)", e.Bus, e.Alarms))
		}
		state := s.State
		if s.Resolution != "" && s.Resolution != "quiet" {
			state = s.Resolution
			if len(state) > 20 {
				state = state[:20]
			}
		}
		fmt.Fprintf(&b, "%-9s %-16s %#4x %-8s %-9s %7d %6d %8.2fs %8.2fs  %s\n",
			s.ID, s.Scope, s.SA, s.Severity, state, s.Alarms, s.Suppressed,
			s.OpenedAt, s.LastEvidence, strings.Join(buses, " "))
	}
	return b.String()
}
