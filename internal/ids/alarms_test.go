package ids_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"vprofile/internal/core"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
)

// TestAlarmVocabulary pins the one alarm classification against the
// formulas it replaced, written out here as the reference. It walks
// every verdict shape — no analog evidence, an extract error or a
// voltage anomaly; suppressed or not; every quarantine (from, to)
// pair; timing early or not; transfer error or not — which covers
// every shape Sequence can produce, and checks Flagged, Raised (in
// emission order), Anomalous, Alarm and the raised set's severity.
func TestAlarmVocabulary(t *testing.T) {
	states := []ids.SAState{ids.SAHealthy, ids.SASuspect, ids.SADegraded}
	for _, analog := range []string{"none", "extract-error", "anomaly"} {
		for _, suppressed := range []bool{false, true} {
			for _, from := range states {
				for _, to := range states {
					for _, early := range []bool{false, true} {
						for _, tpErr := range []bool{false, true} {
							r := ids.CompositeResult{PrevSAState: from, SAState: to, Suppressed: suppressed}
							switch analog {
							case "extract-error":
								r.ExtractErr = errors.New("short trace")
							case "anomaly":
								r.Voltage = core.Detection{Anomaly: true, Reason: core.ReasonOverThreshold}
							}
							if early {
								r.Timing = ids.PeriodTooEarly
							}
							if tpErr {
								r.TransferErr = errors.New("tp sequence")
							}
							name := fmt.Sprintf("%s/supp=%v/%s->%s/early=%v/tp=%v", analog, suppressed, from, to, early, tpErr)
							checkAlarmShape(t, name, r)
						}
					}
				}
			}
		}
	}
}

func checkAlarmShape(t *testing.T, name string, r ids.CompositeResult) {
	t.Helper()
	// The reference formulas, as the composite, the flight decision
	// and the incident evidence each spelled them.
	anomalous := r.ExtractErr != nil || r.Voltage.Anomaly || r.Timing == ids.PeriodTooEarly || r.TransferErr != nil
	alarm := anomalous
	if r.Suppressed {
		alarm = r.Timing == ids.PeriodTooEarly || r.TransferErr != nil
	}
	var flagged []string
	if r.ExtractErr == nil && r.Voltage.Anomaly {
		flagged = append(flagged, obs.EventVoltage)
	}
	if r.ExtractErr != nil {
		flagged = append(flagged, obs.EventPreprocess)
	}
	if r.Timing == ids.PeriodTooEarly {
		flagged = append(flagged, obs.EventTiming)
	}
	if r.TransferErr != nil {
		flagged = append(flagged, obs.EventTransport)
	}
	var raised []string
	if r.ExtractErr != nil {
		if !r.Suppressed {
			raised = append(raised, obs.EventPreprocess)
		}
	} else if r.Voltage.Anomaly && !r.Suppressed {
		raised = append(raised, obs.EventVoltage)
	}
	if r.QuarantineChanged() && r.SAState == ids.SADegraded {
		raised = append(raised, obs.EventQuarantine)
	}
	if r.Timing == ids.PeriodTooEarly {
		raised = append(raised, obs.EventTiming)
	}
	if r.TransferErr != nil {
		raised = append(raised, obs.EventTransport)
	}
	severity := obs.SeverityInfo
	for _, k := range raised {
		switch k {
		case obs.EventVoltage, obs.EventTransport, obs.EventQuarantine:
			severity = obs.SeverityCritical
		case obs.EventPreprocess, obs.EventTiming:
			if severity != obs.SeverityCritical {
				severity = obs.SeverityWarning
			}
		}
	}

	if got := r.Flagged().Kinds(); !slices.Equal(got, flagged) {
		t.Errorf("%s: Flagged %v, want %v", name, got, flagged)
	}
	if got := r.Raised().Kinds(); !slices.Equal(got, raised) {
		t.Errorf("%s: Raised %v, want %v", name, got, raised)
	}
	if got := r.Anomalous(); got != anomalous {
		t.Errorf("%s: Anomalous %v, want %v", name, got, anomalous)
	}
	if got := r.Alarm(); got != alarm {
		t.Errorf("%s: Alarm %v, want %v", name, got, alarm)
	}
	if got := r.Raised().Severity(); got != severity {
		t.Errorf("%s: severity %s, want %s", name, got, severity)
	}
	if got := obs.AlarmsOf(raised); got != r.Raised() {
		t.Errorf("%s: AlarmsOf(%v) = %08b, want %08b", name, raised, got, r.Raised())
	}
}
