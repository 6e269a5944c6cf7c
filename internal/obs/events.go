package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync"
)

// ErrEventLogClosed reports an Emit (or second Close) on a log that
// has already been closed. It is a distinct sentinel so callers that
// race a shutdown can distinguish "too late" from a real write error.
var ErrEventLogClosed = errors.New("obs: event log closed")

// Event kinds written by the replay tools. Every suspicious record in
// the human-readable timeline maps to exactly one of these, so the
// JSONL stream is a machine-readable mirror of the timeline.
const (
	EventVoltage    = "voltage"    // vProfile flagged the frame's analog fingerprint
	EventPreprocess = "preprocess" // the trace would not preprocess at all
	EventTiming     = "timing"     // the period monitor saw an early arrival
	EventTransport  = "transport"  // a malformed / out-of-sequence transport frame
	EventDM1        = "dm1"        // a completed DM1 diagnostic transfer
	EventFlight     = "flight"     // the flight recorder froze and wrote a forensic bundle
	EventQuarantine = "quarantine" // a source address changed quarantine state
	EventModelSwap  = "model_swap" // the session hot-swapped its detection model
	EventStats      = "stats"      // end-of-run registry snapshot (final line)

	// Incident lifecycle kinds, written by the fleet incident
	// correlator (internal/obs/incident): an incident opens on first
	// evidence, updates on escalation (severity, a new bus joining a
	// correlated incident, a linked flight bundle) and resolves after
	// a quiet window or at end of run.
	EventIncidentOpen    = "incident_open"
	EventIncidentUpdate  = "incident_update"
	EventIncidentResolve = "incident_resolve"

	// Drift-detector kinds, written by internal/obs/drift: a source
	// address's distance distribution escalated to warn or alarm
	// relative to the baseline frozen at model load/swap. At most one
	// of each per SA per model generation (the drift state machine is
	// escalate-only until a swap resets it).
	EventDriftWarn  = "drift_warn"
	EventDriftAlarm = "drift_alarm"

	// EventDropped is the single record Close appends when the
	// max-events cap truncated the stream; its Detail carries the
	// dropped count.
	EventDropped = "events_dropped"
)

// Event severities. Alarms carry one so downstream consumers can
// route on urgency without re-deriving it from the kind.
const (
	SeverityInfo     = "info"
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// AlarmSet is a set of alarm kinds, one bit per detector family plus
// the quarantine transition, which ids.CompositeResult's Flagged and
// Raised fill. Next yields the kinds in a frame's event order.
type AlarmSet uint8

const (
	AlarmVoltage AlarmSet = 1 << iota
	AlarmPreprocess
	AlarmQuarantine // a sender moved into Degraded
	AlarmTiming
	AlarmTransport

	// AlarmAnalog is the evidence quarantine scores and coalesces.
	AlarmAnalog = AlarmVoltage | AlarmPreprocess
)

// alarmKinds names each bit by its event kind, in bit order.
var alarmKinds = [...]string{EventVoltage, EventPreprocess, EventQuarantine, EventTiming, EventTransport}

// alarmCritical are the kinds that page. The others, timing drift and
// garbled traces, are warnings: they can be bus faults as easily.
const alarmCritical = AlarmVoltage | AlarmQuarantine | AlarmTransport

// Has reports whether s contains any of a's kinds.
func (s AlarmSet) Has(a AlarmSet) bool { return s&a != 0 }

// Next splits off s's first kind: iterate a set with
//
//	for a, rest := s.Next(); a != 0; a, rest = rest.Next() { ... }
func (s AlarmSet) Next() (a, rest AlarmSet) { return s & -s, s & (s - 1) }

// Kind names a single-kind set by its event kind.
func (a AlarmSet) Kind() string { return alarmKinds[bits.TrailingZeros8(uint8(a))] }

// Kinds lists the set's event kinds in order (nil when empty).
func (s AlarmSet) Kinds() (kinds []string) {
	for a, rest := s.Next(); a != 0; a, rest = rest.Next() {
		kinds = append(kinds, a.Kind())
	}
	return kinds
}

// Severity is the highest severity of the set's kinds, SeverityInfo
// for the empty set.
func (s AlarmSet) Severity() string {
	switch {
	case s&alarmCritical != 0:
		return SeverityCritical
	case s != 0:
		return SeverityWarning
	}
	return SeverityInfo
}

// AlarmsOf parses event kinds into a set, ignoring non-alarm kinds.
func AlarmsOf(kinds []string) (s AlarmSet) {
	for _, k := range kinds {
		if i := slices.Index(alarmKinds[:], k); i >= 0 {
			s |= 1 << i
		}
	}
	return s
}

// Event is one structured record of the JSONL event log.
type Event struct {
	TimeSec float64 `json:"t"`
	Kind    string  `json:"kind"`
	// Bus names the capture session the event belongs to on a fleet
	// replay sharing one log; empty on single-bus runs.
	Bus string `json:"bus,omitempty"`
	// Severity tags alarms (SeverityInfo/Warning/Critical); empty for
	// neutral records like the stats snapshot.
	Severity string `json:"severity,omitempty"`
	// Trace carries the per-frame trace id when the run was traced, so
	// an event line joins against its flight-recorder decision record.
	Trace string `json:"trace,omitempty"`
	// SA and FrameID identify the frame the event belongs to; they are
	// pointers so frameless records (the trailing stats snapshot) omit
	// them rather than claiming SA 0.
	SA      *uint8  `json:"sa,omitempty"`
	FrameID *uint32 `json:"frame_id,omitempty"`
	// Voltage verdict detail.
	Reason  string  `json:"reason,omitempty"`
	Dist    float64 `json:"dist,omitempty"`
	Predict int     `json:"predict,omitempty"`
	// Transport / diagnostic detail.
	PGN  uint32 `json:"pgn,omitempty"`
	DTCs int    `json:"dtcs,omitempty"`
	// Incident and Scope tag incident-lifecycle records (and flight
	// records cut while an incident was open) with the incident id
	// ("INC-0003") and its scope ("single-bus" or "fleet-correlated").
	Incident string `json:"incident,omitempty"`
	Scope    string `json:"scope,omitempty"`
	// Detail carries free-text context (error strings, lamp states).
	Detail string `json:"detail,omitempty"`
	// Stats is the registry snapshot on the final EventStats record.
	Stats map[string]any `json:"stats,omitempty"`
}

// U8 and U32 build the optional frame-identity fields.
func U8(v uint8) *uint8    { return &v }
func U32(v uint32) *uint32 { return &v }

// EventLog writes events as JSON Lines: one object per line, flushed
// on Close. Emit is safe for concurrent use, including concurrently
// with Close: once the log is closed every Emit returns
// ErrEventLogClosed instead of writing through a closed file.
type EventLog struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	c      io.Closer
	err    error
	closed bool
	// max caps the events written (0 = unlimited); written counts
	// capped kinds accepted so far, dropped the ones discarded once
	// the cap was hit. EventStats records are exempt — they are
	// bounded (one per bus) and the end-of-run snapshot must survive
	// even a capped flood.
	max     int
	written int
	dropped int64
}

// CreateEventLog creates (truncating) a JSONL event log at path.
func CreateEventLog(path string) (*EventLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &EventLog{bw: bufio.NewWriter(f), c: f}, nil
}

// NewEventLog wraps an arbitrary writer (closed on Close when it
// implements io.Closer).
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{bw: bufio.NewWriter(w)}
	l.c, _ = w.(io.Closer)
	return l
}

// SetMaxEvents caps the events the log will write (0 = unlimited).
// Once the cap is reached further Emits are silently dropped and
// counted instead of written — a pathological alarm flood must not
// fill the disk mid-replay — and Close appends one EventDropped
// record carrying the count. EventStats records are exempt from the
// cap.
func (l *EventLog) SetMaxEvents(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.max = n
}

// Dropped reports how many events the max-events cap discarded.
func (l *EventLog) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Emit appends one event. After any write error the log is poisoned
// and every later call returns the first error; after Close it
// returns ErrEventLogClosed. An event discarded by the max-events cap
// returns nil — a capped log is healthy, just full.
func (l *EventLog) Emit(e Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.max > 0 && e.Kind != EventStats && !l.closed && l.err == nil {
		if l.written >= l.max {
			l.dropped++
			return nil
		}
		l.written++
	}
	return l.emitLocked(e)
}

func (l *EventLog) emitLocked(e Event) error {
	if l.closed {
		return ErrEventLogClosed
	}
	if l.err != nil {
		return l.err
	}
	b, err := json.Marshal(e)
	if err != nil {
		l.err = err
		return err
	}
	if _, err := l.bw.Write(b); err != nil {
		l.err = err
		return err
	}
	if err := l.bw.WriteByte('\n'); err != nil {
		l.err = err
	}
	return l.err
}

// Close flushes and closes the log. When reg is non-nil a final
// EventStats record carrying the registry snapshot is appended first,
// so one file holds both the event stream and the end-of-run stats.
// A second Close returns ErrEventLogClosed without touching the
// underlying file again.
func (l *EventLog) Close(reg *Registry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrEventLogClosed
	}
	if l.dropped > 0 {
		l.emitLocked(Event{Kind: EventDropped, Severity: SeverityWarning,
			Detail: fmt.Sprintf("%d events dropped by the max-events cap (%d)", l.dropped, l.max)})
	}
	if reg != nil {
		l.emitLocked(Event{Kind: EventStats, Stats: reg.Snapshot()})
	}
	l.closed = true
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	if l.c != nil {
		if err := l.c.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return l.err
}
