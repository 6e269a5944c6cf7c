package ids

import (
	"vprofile/internal/core"
	"vprofile/internal/linalg"
)

// Forensics is the evidence VoltageVerdictTraced preserves beyond the
// verdict itself: the extracted edge-set vector and the full distance
// explanation. Both live in the frame's own trace storage (spilling
// to the heap only past its capacity) and are never touched again by
// the detector, so the flight recorder may retain them without
// copying. An untraced verdict returns zero Forensics.
type Forensics struct {
	EdgeSet linalg.Vector
	Explain core.Explanation
}

// SequenceState snapshots the stateful half of the stack as it will
// judge the NEXT message of the given frame id — capture it just
// before Sequence to record the state a verdict was derived from.
type SequenceState struct {
	// Seen counts messages processed so far; Warmup is the training
	// length; Finalized reports whether the period monitor enforces.
	Seen      int
	Warmup    int
	Finalized bool
	// Period is the frame id's timing stream (valid when PeriodKnown).
	Period      PeriodMonitorState
	PeriodKnown bool
}

// PeriodMonitorState aliases the monitor's stream snapshot so callers
// outside ids need only this package.
type PeriodMonitorState = StreamState

// StateFor returns the sequence-detector state relevant to one frame
// id. Call from the same goroutine that calls Sequence.
func (c *Composite) StateFor(id uint32) SequenceState {
	out := SequenceState{Seen: c.seen, Warmup: c.warmup, Finalized: c.finalized}
	out.Period, out.PeriodKnown = c.period.StreamState(id)
	return out
}
