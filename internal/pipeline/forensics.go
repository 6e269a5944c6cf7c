package pipeline

import (
	"math"

	"vprofile/internal/ids"
	"vprofile/internal/obs/tracing"
)

// buildDecision flattens one frame's verdict, evidence and detector
// state into the flight recorder's record. Every slice handed over is
// either freshly allocated here or owned exclusively by this frame
// (the extracted edge set), honouring the recorder's immutability
// contract. The record's payload and trace are copied: the record
// itself is recycled once the sink call returns.
func buildDecision(idx int, cur *scored, verdict ids.CompositeResult, state ids.SequenceState) *tracing.Decision {
	// The record lives in the FrameTrace's own allocation — the trace,
	// its spans and the decision are one per-frame object.
	d := cur.ft.DecisionSlot()
	*d = tracing.Decision{
		Trace:    cur.ft.ID,
		Index:    idx,
		TimeSec:  cur.rec.TimeSec,
		FrameID:  cur.rec.FrameID,
		SA:       uint8(cur.frame.SA()),
		Data:     append(tracing.HexBytes(nil), cur.rec.Data...),
		ECUIndex: cur.rec.ECUIndex,
		Spans:    cur.ft.Spans,
		Samples:  append([]float64(nil), cur.rec.Trace...),
	}

	// A Suppressed verdict keeps its evidence but raises no alarm, so
	// the flight recorder does not freeze a bundle per spammed frame.
	d.Alarms = verdict.Raised().Kinds()
	if verdict.ExtractErr != nil {
		d.ExtractErr = verdict.ExtractErr.Error()
		d.Expected, d.Predicted = -1, -1
	} else {
		v := verdict.Voltage
		d.Reason = v.Reason.String()
		d.Expected = int(v.Expected)
		d.Predicted = int(v.Predict)
		d.MinDist = v.MinDist
		ex := cur.forensics.Explain
		d.Threshold = ex.Threshold
		d.Margin = ex.Margin
		d.EdgeSet = cur.forensics.EdgeSet
		// The distance slice lives in this frame's own trace storage and
		// the detector never touches it again, so the record owns it.
		d.Distances = ex.Distances
	}
	if verdict.SAState != ids.SAHealthy {
		d.Quarantine = verdict.SAState.String()
	}
	d.Suppressed = verdict.Suppressed

	d.Timing = verdict.Timing.String()
	if verdict.TimingErr != nil {
		d.TimingErr = verdict.TimingErr.Error()
	}
	if verdict.TransferErr != nil {
		d.TransferErr = verdict.TransferErr.Error()
	}

	d.Detector = tracing.DetectorState{
		Seen:      state.Seen,
		Warmup:    state.Warmup,
		Finalized: state.Finalized,
	}
	if state.PeriodKnown {
		p := state.Period
		d.Detector.PeriodKnown = true
		d.Detector.PeriodEnforced = p.Enforced
		d.Detector.PeriodMean = p.Mean
		d.Detector.PeriodTolerance = p.Tolerance
		// The monitor parks reset stream clocks at NaN, which JSON
		// cannot carry; omit the field for those frames.
		if !math.IsNaN(p.Last) {
			d.Detector.PeriodLast = p.Last
		}
		d.Detector.PeriodSamples = p.Samples
	}
	return d
}
