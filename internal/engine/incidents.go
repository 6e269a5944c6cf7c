package engine

import (
	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
	"vprofile/internal/pipeline"
)

// WithIncidents enables the fleet-observability incident layer: every
// verdict feeds a streaming correlator that turns raw alarms into
// lifecycle-managed incidents (single-bus or fleet-correlated),
// maintains per-bus health scores, and serves /fleet, /fleet/incidents
// and /fleet/topk next to /metrics. Verdicts are untouched — the layer
// only observes the stream.
func WithIncidents(on bool) Option { return func(s *settings) { s.incidents = on } }

// WithIncidentConfig enables incidents with an explicit correlator
// configuration (tests and benchmarks tune windows with it; the CLIs
// use the defaults).
func WithIncidentConfig(cfg incident.Config) Option {
	return func(s *settings) { s.incidents = true; s.incCfg = &cfg }
}

// WithMaxEvents caps the JSONL event log (WithEventsPath): past the
// cap, events are dropped and counted instead of written, so a
// pathological alarm flood cannot fill the disk (0 = unlimited).
func WithMaxEvents(n int) Option { return func(s *settings) { s.maxEvents = n } }

// bindIncidents registers a member's bus stream with the fleet's
// correlator, binding the health gauge and the recovering reader's
// corruption counter when the member has a registry.
func bindIncidents(inc *incident.Correlator, bus string, reg *obs.Registry) *incident.BusStream {
	stream := inc.Bus(bus)
	if reg != nil {
		stream.BindHealthGauge(reg.Gauge("vprofile_bus_health_score",
			"Composite bus health 0-100 (100 = healthy): decayed alarm, extract-failure and corruption-recovery rates plus quarantine occupancy."))
		stream.BindCorruptionCounter(reg.Counter("vprofile_capture_corruptions_recovered_total",
			"Corrupted stretches the recovering reader re-synchronised past."))
	}
	return stream
}

// incidentEvidence translates one pipeline verdict into the
// correlator's evidence shape. Pure projection — reading it cannot
// perturb the verdict stream.
func incidentEvidence(r pipeline.Result) incident.Evidence {
	return incident.Evidence{
		SA: uint8(r.Frame.SA()), T: r.Record.TimeSec,
		Flagged: r.Verdict.Flagged(), Suppressed: r.Verdict.Suppressed,
	}
}

// Incidents returns the fleet's full incident history (open incidents
// resolved as "end-of-run"), available once Run or Close returns.
func (f *Fleet) Incidents() []incident.Snapshot { return f.incidents }
