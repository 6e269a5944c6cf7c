package engine

import (
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/pipeline"
)

// WithDrift enables the drift observability layer: every scored
// frame's best-cluster distance and threshold margin feed per-SA
// streaming sketches and drift detectors (Page-Hinkley mean shift,
// windowed quantile divergence, margin-erosion trend), emitting
// drift_warn/drift_alarm events, vprofile_drift_* gauges and a /drift
// JSON endpoint next to /metrics. Baselines re-freeze on model swap.
// Verdicts are untouched — the layer only observes the stream.
func WithDrift(on bool) Option { return func(s *settings) { s.drift = on } }

// WithDriftConfig enables drift monitoring with an explicit detector
// configuration (tests tune baselines and thresholds with it; the
// CLIs use the defaults).
func WithDriftConfig(cfg drift.Config) Option {
	return func(s *settings) { s.drift = true; s.driftCfg = &cfg }
}

// newDriftMonitor builds a member's drift monitor: events go out
// tagged with the member's bus, transitions escalate its incidents,
// and the vprofile_drift_* instruments land on its registry.
func newDriftMonitor(s *Session) *drift.Monitor {
	cfg := drift.Config{}
	if s.driftCfg != nil {
		cfg = *s.driftCfg
	}
	if cfg.Bus == "" {
		cfg.Bus = s.name
	}
	if cfg.Emit == nil {
		cfg.Emit = func(e obs.Event) { _ = s.emit(e) }
	}
	if stream := s.incStream; cfg.OnTransition == nil && stream != nil {
		// A drifting SA escalates its open incident; fleet-wide drift
		// on the same SA tags it environmental.
		cfg.OnTransition = func(tr drift.Transition) {
			stream.ObserveDrift(tr.SA, tr.To.String(), tr.TimeSec)
		}
	}
	m := drift.NewMonitor(cfg)
	if s.reg != nil {
		m.BindGauges(s.reg)
	}
	return m
}

// observeDrift projects one verdict into the drift monitor: the
// best-cluster distance the voltage detector already computed, and
// the alarm threshold for the frame's expected sender. Pure
// observation — one sketch insert per scored frame, nothing written
// back, so verdicts stay bit-identical with the layer on.
func observeDrift(mon *drift.Monitor, store *ModelStore, r pipeline.Result) {
	v := r.Verdict
	if v.ExtractErr != nil || v.Voltage.Expected < 0 || v.Voltage.Predict < 0 {
		// Unscored frames (failed extraction, unknown SA) carry no
		// distance to sketch.
		return
	}
	m := store.AcquireModel()
	exp := int(v.Voltage.Expected)
	if exp >= len(m.Clusters) {
		return
	}
	thr := m.Clusters[exp].MaxDist + m.Margin
	mon.Observe(uint8(r.Frame.SA()), v.Voltage.MinDist, thr, r.Record.TimeSec)
}
