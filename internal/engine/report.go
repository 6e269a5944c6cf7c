package engine

import (
	"fmt"
	"sort"
	"strings"

	"vprofile/internal/canbus"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/pipeline"
)

// saTally is one row of the per-SA table. Alarms are split by
// detector family so the table reconciles exactly with the summary
// totals: voltage covers vProfile anomalies and preprocess failures,
// timing covers early arrivals, transport covers malformed transfers.
type saTally struct {
	frames     int
	voltAlarms int
	timeAlarms int
	tpAlarms   int
	lastSeen   float64
	// Quarantine bookkeeping (zero / SAHealthy unless quarantine is
	// on): suppressed counts coalesced voltage alarms, state tracks
	// the SA's latest quarantine state.
	suppressed int
	state      ids.SAState
	// drift is the SA's end-of-run drift state ("" unless -drift).
	drift string
}

// Tally accumulates one session's summary counters, the per-SA
// table, and the structured event stream that feeds both the human
// timeline and the JSONL event log. Every Session runs one over its
// results and emits the events it returns, so every replay tool gets
// the identical event stream from a verdict — severities, trace ids
// and quarantine transitions included.
type Tally struct {
	perSA map[uint8]*saTally
	// events is Observe's reused result slice.
	events []obs.Event
	TallyCounts
	Quarantined bool
	Drifting    bool
}

// TallyCounts are a tally's summary counters: what Session.ReadTally
// copies out of a live tally.
type TallyCounts struct {
	VoltAlarms    int
	PreprocFailed int
	PeriodAlarms  int
	TPTransfers   int
	TPErrors      int
	TimingFaults  int
	DM1Reports    int
	Suppressed    int
	LastAt        float64
}

func NewTally() *Tally { return &Tally{perSA: map[uint8]*saTally{}} }

// Observe folds one replay result into the tally and returns the
// structured events it produced (nil for an unremarkable frame).
// Alarm events are severity-tagged, and on a traced replay every
// event carries the frame's TraceID so event lines join against the
// flight recorder's decision records. The returned slice is the
// tally's own and is overwritten by the next Observe: a caller that
// keeps the events past that must copy them.
func (t *Tally) Observe(res pipeline.Result) []obs.Event {
	rec, r := res.Record, res.Verdict
	t.LastAt = rec.TimeSec
	sa := uint8(res.Frame.SA())
	c := t.perSA[sa]
	if c == nil {
		c = &saTally{}
		t.perSA[sa] = c
	}
	c.frames++
	c.lastSeen = rec.TimeSec

	flagged, raised := r.Flagged(), r.Raised()
	switch {
	case flagged.Has(obs.AlarmPreprocess):
		t.PreprocFailed++
		c.voltAlarms++
	case flagged.Has(obs.AlarmVoltage):
		t.VoltAlarms++
		c.voltAlarms++
	}
	if r.Suppressed {
		// Counted, but Raised leaves out the per-frame alarm spam.
		t.Suppressed++
		c.suppressed++
	}
	c.state = r.SAState
	if r.SAState != ids.SAHealthy || r.QuarantineChanged() {
		t.Quarantined = true
	}
	if flagged.Has(obs.AlarmTiming) {
		t.PeriodAlarms++
		c.timeAlarms++
	}
	if r.TimingErr != nil {
		t.TimingFaults++
	}
	if flagged.Has(obs.AlarmTransport) {
		t.TPErrors++
		c.tpAlarms++
	}

	// One event per raised alarm, plus an info-level quarantine event
	// for every transition that raised none (into Suspect, or a
	// recovery), in the set's emission order.
	emit := raised
	if r.QuarantineChanged() {
		emit |= obs.AlarmQuarantine
	}
	events := t.events[:0]
	for a, rest := emit.Next(); a != 0; a, rest = rest.Next() {
		ev := alarmEvent(res, a)
		if !raised.Has(a) {
			ev.Severity = obs.SeverityInfo
		}
		events = append(events, ev)
	}
	if r.Transfer != nil {
		t.TPTransfers++
		if r.Transfer.PGN == canbus.PGNDM1 {
			if lamps, dtcs, err := canbus.DecodeDM1(r.Transfer.Payload); err == nil {
				t.DM1Reports++
				events = append(events, obs.Event{
					TimeSec: rec.TimeSec, Kind: obs.EventDM1,
					Severity: obs.SeverityInfo, Trace: traceID(res),
					SA: obs.U8(uint8(r.Transfer.SA)), FrameID: obs.U32(rec.FrameID),
					PGN: uint32(r.Transfer.PGN), DTCs: len(dtcs),
					Detail: fmt.Sprintf("lamps=%+v", lamps),
				})
			}
		}
	}
	if len(events) == 0 {
		return nil
	}
	t.events = events
	return events
}

// VoltageEvent renders one voltage verdict as its structured event,
// the shape the tally emits for every raised voltage alarm.
func VoltageEvent(res pipeline.Result) obs.Event { return alarmEvent(res, obs.AlarmVoltage) }

// alarmEvent renders one alarm kind of a verdict as its structured
// event. A preprocess failure reports the real failure, not the zero
// voltage verdict ("ok, dist 0.00") of a frame never preprocessed.
func alarmEvent(res pipeline.Result, a obs.AlarmSet) obs.Event {
	r := res.Verdict
	ev := obs.Event{
		TimeSec: res.Record.TimeSec, Kind: a.Kind(), Severity: a.Severity(), Trace: traceID(res),
		SA: obs.U8(uint8(res.Frame.SA())), FrameID: obs.U32(res.Record.FrameID),
	}
	switch a {
	case obs.AlarmVoltage:
		d := r.Voltage
		ev.Reason, ev.Dist, ev.Predict = d.Reason.String(), d.MinDist, int(d.Predict)
	case obs.AlarmPreprocess:
		ev.Detail = r.ExtractErr.Error()
	case obs.AlarmQuarantine:
		ev.Detail = fmt.Sprintf("%s->%s", r.PrevSAState, r.SAState)
	case obs.AlarmTransport:
		ev.Detail = r.TransferErr.Error()
	}
	return ev
}

// traceID is the frame's trace id on a traced replay, "" otherwise.
func traceID(res pipeline.Result) string {
	if res.Trace == nil {
		return ""
	}
	return res.Trace.ID.String()
}

// SetDrift folds an end-of-run drift snapshot into the table. Each SA
// the monitor observed gets its final drift state; SAs the monitor
// never scored (all frames failed preprocessing, say) show "-". A nil
// snapshot (drift off) is a no-op, so callers can pass Summary.Drift
// unconditionally.
func (t *Tally) SetDrift(snap *drift.Snapshot) {
	if snap == nil {
		return
	}
	t.Drifting = true
	for _, st := range snap.SAs {
		c := t.perSA[st.SA]
		if c == nil {
			c = &saTally{}
			t.perSA[st.SA] = c
		}
		c.drift = st.State
	}
}

// TallyRow is one SA's accounting in exportable form — the control
// API's per-SA table. Field meanings match Table's columns.
type TallyRow struct {
	SA         uint8   `json:"sa"`
	Frames     int     `json:"frames"`
	VoltAlarms int     `json:"volt_alarms"`
	TimeAlarms int     `json:"time_alarms"`
	TPAlarms   int     `json:"tp_alarms"`
	Suppressed int     `json:"suppressed,omitempty"`
	State      string  `json:"state,omitempty"`
	Drift      string  `json:"drift,omitempty"`
	LastSeen   float64 `json:"last_seen"`
}

// Rows exports the per-SA table sorted by source address. State is
// populated only on quarantined replays, Drift only when the drift
// layer ran.
func (t *Tally) Rows() []TallyRow {
	sas := make([]int, 0, len(t.perSA))
	for sa := range t.perSA {
		sas = append(sas, int(sa))
	}
	sort.Ints(sas)
	rows := make([]TallyRow, 0, len(sas))
	for _, sa := range sas {
		c := t.perSA[uint8(sa)]
		row := TallyRow{
			SA: uint8(sa), Frames: c.frames,
			VoltAlarms: c.voltAlarms, TimeAlarms: c.timeAlarms, TPAlarms: c.tpAlarms,
			Suppressed: c.suppressed, LastSeen: c.lastSeen,
		}
		if t.Quarantined {
			row.State = c.state.String()
		}
		if t.Drifting {
			row.Drift = c.drift
		}
		rows = append(rows, row)
	}
	return rows
}

// degradedSAs counts the SAs whose latest verdict left them Degraded —
// the quarantine's own count, since an SA's state changes only on its
// own frames.
func (t *Tally) degradedSAs() int {
	n := 0
	for _, c := range t.perSA {
		if c.state == ids.SADegraded {
			n++
		}
	}
	return n
}

// Frames is the total frame count across all SAs.
func (t *Tally) Frames() int {
	n := 0
	for _, c := range t.perSA {
		n += c.frames
	}
	return n
}

// Table renders the per-SA accounting. Every alarm family the summary
// counts is attributed to a source address, so each column sums to
// its summary total: volt = voltage alarms + preprocess failures,
// timing = timing alarms, tp = transport errors. On a quarantined
// replay two more columns appear: supp (coalesced voltage alarms, a
// subset of volt) and the SA's final quarantine state. On a -drift
// replay a drift column carries each SA's final drift state.
func (t *Tally) Table() string {
	sas := make([]int, 0, len(t.perSA))
	for sa := range t.perSA {
		sas = append(sas, int(sa))
	}
	sort.Ints(sas)
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %8s %8s %8s", "SA", "frames", "volt", "timing", "tp")
	if t.Quarantined {
		fmt.Fprintf(&b, " %8s %10s", "supp", "state")
	}
	if t.Drifting {
		fmt.Fprintf(&b, " %7s", "drift")
	}
	fmt.Fprintf(&b, " %10s\n", "last seen")
	for _, sa := range sas {
		c := t.perSA[uint8(sa)]
		fmt.Fprintf(&b, "  %#02x %8d %8d %8d %8d", sa, c.frames, c.voltAlarms, c.timeAlarms, c.tpAlarms)
		if t.Quarantined {
			fmt.Fprintf(&b, " %8d %10s", c.suppressed, c.state)
		}
		if t.Drifting {
			ds := c.drift
			if ds == "" {
				ds = "-"
			}
			fmt.Fprintf(&b, " %7s", ds)
		}
		fmt.Fprintf(&b, " %9.2fs\n", c.lastSeen)
	}
	return b.String()
}
