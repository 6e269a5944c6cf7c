package tracing

import (
	"vprofile/internal/core"
	"vprofile/internal/obs"
)

// Alarm kinds a decision can carry, named identically to the
// event-log kinds so bundle records and event lines join on the same
// vocabulary (obs.AlarmSet.Kinds spells a set in them).
const (
	AlarmVoltage    = obs.EventVoltage
	AlarmPreprocess = obs.EventPreprocess
	AlarmTiming     = obs.EventTiming
	AlarmTransport  = obs.EventTransport
	AlarmQuarantine = obs.EventQuarantine
)

// ClusterDistance is one cluster's distance to the frame's edge set.
// It aliases the detector's own explanation type so the slice
// DetectExplain builds is recorded as-is, not copied per frame.
type ClusterDistance = core.ClusterDistance

// DetectorState snapshots the stateful detectors as they stood when
// the frame was judged (before the frame itself updated them), so a
// timing alarm can be re-derived from the record alone.
type DetectorState struct {
	// Seen and Warmup locate the frame relative to the composite's
	// training phase; Finalized reports whether the period monitor was
	// enforcing yet.
	Seen      int  `json:"seen"`
	Warmup    int  `json:"warmup"`
	Finalized bool `json:"finalized"`
	// Period* describe the frame ID's learned timing stream:
	// PeriodTooEarly fires when the observed gap undercuts
	// PeriodMean − PeriodTolerance. PeriodLast is the previous arrival
	// (NaN marshals as null when the stream was reset).
	PeriodKnown     bool    `json:"period_known"`
	PeriodEnforced  bool    `json:"period_enforced,omitempty"`
	PeriodMean      float64 `json:"period_mean,omitempty"`
	PeriodTolerance float64 `json:"period_tolerance,omitempty"`
	PeriodLast      float64 `json:"period_last,omitempty"`
	PeriodSamples   int     `json:"period_samples,omitempty"`
}

// Decision is the flight recorder's unit: everything that produced
// one frame's verdict. Records are immutable once handed to the
// recorder — the ring, open capture windows and finished bundles all
// share pointers to the same record, so nothing may write to it (or
// to the slices it references) after Record is called.
type Decision struct {
	Trace   TraceID `json:"trace"`
	Index   int     `json:"index"`
	TimeSec float64 `json:"t"`

	// Frame identity; ECUIndex is the capture's ground-truth sender
	// (−1 for a foreign device, −2 when the source had none).
	FrameID  uint32   `json:"frame_id"`
	SA       uint8    `json:"sa"`
	Data     HexBytes `json:"data,omitempty"` // payload bytes, hex in JSON
	ECUIndex int32    `json:"ecu_index"`

	// Verdict summary. Alarms lists the alarms raised for the frame
	// (Alarm* kinds, the verdict's Raised set); empty means no alarm.
	Anomaly  bool     `json:"anomaly"`
	Alarms   []string `json:"alarms,omitempty"`
	Severity string   `json:"severity,omitempty"`

	// Voltage evidence: the claimed SA's expected cluster versus the
	// nearest cluster, the distance to every cluster, and the
	// threshold + margin the minimum was judged against.
	Reason     string            `json:"reason,omitempty"`
	Expected   int               `json:"expected_cluster"`
	Predicted  int               `json:"predicted_cluster"`
	MinDist    float64           `json:"min_dist"`
	Threshold  float64           `json:"threshold"`
	Margin     float64           `json:"margin"`
	Distances  []ClusterDistance `json:"distances,omitempty"`
	EdgeSet    []float64         `json:"edge_set,omitempty"`
	ExtractErr string            `json:"extract_err,omitempty"`

	// Timing / transport evidence.
	Timing      string `json:"timing,omitempty"`
	TimingErr   string `json:"timing_err,omitempty"`
	TransferErr string `json:"transfer_err,omitempty"`

	// Quarantine is the sender's state after this frame ("suspect" or
	// "degraded"; omitted when healthy or quarantine is off). Suppressed
	// marks a voltage alarm coalesced into a Degraded sender's state.
	Quarantine string `json:"quarantine,omitempty"`
	Suppressed bool   `json:"suppressed,omitempty"`

	Detector DetectorState `json:"detector"`

	// Spans is the frame's stage-by-stage timing trace.
	Spans []*Span `json:"spans,omitempty"`

	// Samples is the frame's raw ADC code trace. It is excluded from
	// the JSONL record (a 5k-sample waveform would dwarf the decision)
	// and persisted in the bundle's binary waveform sidecar instead.
	Samples []float64 `json:"-"`
}

// seal computes the derived fields a finished decision carries.
func (d *Decision) seal() {
	d.Anomaly = len(d.Alarms) > 0
	if d.Anomaly {
		d.Severity = obs.AlarmsOf(d.Alarms).Severity()
	}
}
