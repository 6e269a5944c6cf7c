package drift

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"vprofile/internal/obs"
)

// Config tunes the drift monitor. The zero value is not usable; call
// (Config).withDefaults (done by NewMonitor) or start from
// DefaultConfig. Thresholds for Page-Hinkley and divergence are in
// baseline spread units (p90−p50 of baseline distance), so one set of
// defaults works across SAs whose raw distances differ by orders of
// magnitude.
type Config struct {
	// Bus names the monitored session in events and fleet rollups.
	Bus string

	// BaselineFrames is how many scored frames per SA are folded into
	// the frozen baseline before the detectors arm.
	BaselineFrames int

	// WindowFrames is the size of the rolling window compared against
	// the baseline by the divergence detector.
	WindowFrames int

	// TrendFrames is the margin-erosion ring size (frames of margin
	// history behind the least-squares slope).
	TrendFrames int

	// PHDelta is the Page-Hinkley drift allowance per frame; PHWarn /
	// PHAlarm are the warn/alarm scores. All in spread units.
	PHDelta float64
	PHWarn  float64
	PHAlarm float64

	// DivergenceWarn / DivergenceAlarm bound how far the window's p90
	// may sit above the baseline p90, in spread units.
	DivergenceWarn  float64
	DivergenceAlarm float64

	// HorizonFrames / AlarmHorizonFrames: warn when the margin-erosion
	// frames-to-threshold estimate drops below HorizonFrames, alarm
	// below AlarmHorizonFrames.
	HorizonFrames      int
	AlarmHorizonFrames int

	// Emit receives drift_warn/drift_alarm events (nil = no events).
	Emit func(obs.Event)

	// OnTransition is called (under the monitor lock, keep it cheap)
	// on every state escalation — the incident correlator hook.
	OnTransition func(Transition)
}

// DefaultConfig returns the tuning used when a field is zero.
func DefaultConfig() Config {
	return Config{
		BaselineFrames:     200,
		WindowFrames:       128,
		TrendFrames:        1024,
		PHDelta:            0.5,
		PHWarn:             30,
		PHAlarm:            100,
		DivergenceWarn:     3,
		DivergenceAlarm:    8,
		HorizonFrames:      20000,
		AlarmHorizonFrames: 1000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BaselineFrames <= 0 {
		c.BaselineFrames = d.BaselineFrames
	}
	if c.WindowFrames <= 0 {
		c.WindowFrames = d.WindowFrames
	}
	if c.TrendFrames <= 0 {
		c.TrendFrames = d.TrendFrames
	}
	if c.PHDelta == 0 {
		c.PHDelta = d.PHDelta
	}
	if c.PHWarn == 0 {
		c.PHWarn = d.PHWarn
	}
	if c.PHAlarm == 0 {
		c.PHAlarm = d.PHAlarm
	}
	if c.DivergenceWarn == 0 {
		c.DivergenceWarn = d.DivergenceWarn
	}
	if c.DivergenceAlarm == 0 {
		c.DivergenceAlarm = d.DivergenceAlarm
	}
	if c.HorizonFrames <= 0 {
		c.HorizonFrames = d.HorizonFrames
	}
	if c.AlarmHorizonFrames <= 0 {
		c.AlarmHorizonFrames = d.AlarmHorizonFrames
	}
	return c
}

// Transition is one per-SA state escalation, delivered to
// Config.OnTransition (e.g. the incident correlator).
type Transition struct {
	Bus               string
	SA                uint8
	From, To          State
	Reason            string
	TimeSec           float64
	FramesToThreshold float64
	Generation        uint64
}

// Monitor tracks drift for every source address of one bus. Observe
// is mutex-guarded (the engine calls it from the ordered sink, so the
// lock is uncontended there; HTTP snapshots contend briefly).
type Monitor struct {
	cfg Config

	mu         sync.Mutex
	sas        [256]*saDetector
	generation uint64 // bumped on every baseline reset (model swap)

	warnTotal  *obs.Counter
	alarmTotal *obs.Counter
	gWarn      *obs.Gauge
	gAlarm     *obs.Gauge
	gFrozen    *obs.Gauge
	gHorizon   *obs.Gauge
}

// NewMonitor returns a monitor with cfg's zero fields defaulted.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Bus returns the bus name the monitor was configured with.
func (m *Monitor) Bus() string { return m.cfg.Bus }

// BindGauges registers the vprofile_drift_* instruments on reg.
// Gauges are integers (the obs package is int64-only); float detail
// lives on /drift.
func (m *Monitor) BindGauges(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.warnTotal = reg.Counter("vprofile_drift_warn_total",
		"Total drift_warn transitions emitted.")
	m.alarmTotal = reg.Counter("vprofile_drift_alarm_total",
		"Total drift_alarm transitions emitted.")
	m.gWarn = reg.Gauge("vprofile_drift_sas_warning",
		"Source addresses currently in drift state warn.")
	m.gAlarm = reg.Gauge("vprofile_drift_sas_alarm",
		"Source addresses currently in drift state alarm.")
	m.gFrozen = reg.Gauge("vprofile_drift_baselines_frozen",
		"Source addresses with a frozen drift baseline.")
	m.gHorizon = reg.Gauge("vprofile_drift_min_frames_to_threshold",
		"Smallest margin-erosion frames-to-threshold estimate across SAs (-1 when no SA is eroding).")
	m.gHorizon.Set(-1)
}

// Observe folds one scored frame into the per-SA detector. dist is
// the best-cluster Mahalanobis distance, threshold the alarm bar for
// the frame's expected sender (cluster MaxDist + model margin), t the
// capture timestamp in seconds. The call is O(1), allocation-free
// after the SA's first frame, and deterministic.
func (m *Monitor) Observe(sa uint8, dist, threshold, t float64) {
	m.mu.Lock()
	d := m.sas[sa]
	if d == nil {
		d = newSADetector(m.cfg)
		m.sas[sa] = d
	}
	tr, changed := d.observe(dist, threshold-dist, t, m.cfg)
	var (
		emit func(obs.Event)
		hook func(Transition)
		ev   obs.Event
		pub  Transition
	)
	if changed {
		m.updateGaugesLocked()
		emit, hook = m.cfg.Emit, m.cfg.OnTransition
		pub = Transition{
			Bus:               m.cfg.Bus,
			SA:                sa,
			From:              tr.From,
			To:                tr.To,
			Reason:            tr.Reason,
			TimeSec:           t,
			FramesToThreshold: tr.Detail.FramesToThreshold,
			Generation:        m.generation,
		}
		ev = m.eventLocked(sa, t, tr)
		if tr.To == Alarm && m.alarmTotal != nil {
			m.alarmTotal.Inc()
		}
		if tr.From == Ok && tr.To >= Warn && m.warnTotal != nil {
			m.warnTotal.Inc()
		}
	} else if m.gHorizon != nil && d.frozen {
		m.updateHorizonLocked()
	}
	m.mu.Unlock()

	if changed {
		if hook != nil {
			hook(pub)
		}
		if emit != nil {
			emit(ev)
		}
	}
}

// eventLocked builds the drift_warn/drift_alarm event for a
// transition.
func (m *Monitor) eventLocked(sa uint8, t float64, tr transition) obs.Event {
	kind, sev := obs.EventDriftWarn, obs.SeverityWarning
	if tr.To == Alarm {
		kind, sev = obs.EventDriftAlarm, obs.SeverityCritical
	}
	ftt := "inf"
	if !math.IsInf(tr.Detail.FramesToThreshold, 1) {
		ftt = fmt.Sprintf("%.0f", tr.Detail.FramesToThreshold)
	}
	return obs.Event{
		TimeSec:  t,
		Kind:     kind,
		Bus:      m.cfg.Bus,
		Severity: sev,
		SA:       obs.U8(sa),
		Reason:   tr.Reason,
		Dist:     tr.Detail.LiveP90,
		Detail: fmt.Sprintf(
			"drift %s->%s by %s: ph=%.2f divergence=%.2f slope=%.3g/frame frames_to_threshold=%s mean_margin=%.3f baseline_p90=%.3f live_p90=%.3f gen=%d",
			tr.From, tr.To, tr.Reason, tr.Detail.PHScore, tr.Detail.Divergence,
			tr.Detail.Slope, ftt, tr.Detail.MeanMargin, tr.Detail.BaselineP90,
			tr.Detail.LiveP90, m.generation),
	}
}

func (m *Monitor) updateGaugesLocked() {
	if m.gWarn == nil {
		return
	}
	var warn, alarm, frozen int64
	for _, d := range m.sas {
		if d == nil {
			continue
		}
		if d.frozen {
			frozen++
		}
		switch d.state {
		case Warn:
			warn++
		case Alarm:
			alarm++
		}
	}
	m.gWarn.Set(warn)
	m.gAlarm.Set(alarm)
	m.gFrozen.Set(frozen)
	m.updateHorizonLocked()
}

func (m *Monitor) updateHorizonLocked() {
	if m.gHorizon == nil {
		return
	}
	min := math.Inf(1)
	for _, d := range m.sas {
		if d != nil && d.frozen && d.framesToThreshold < min {
			min = d.framesToThreshold
		}
	}
	if math.IsInf(min, 1) {
		m.gHorizon.Set(-1)
	} else {
		m.gHorizon.Set(int64(min))
	}
}

// ResetBaseline discards every SA's drift state and starts
// re-learning baselines — called when the detection model is
// hot-swapped: distances scored by the new model are a different
// distribution and comparing them against the old baseline would
// fabricate drift. Bumps the generation, so the "at most one
// drift_warn per SA" guarantee is per model generation.
func (m *Monitor) ResetBaseline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.generation++
	for _, d := range m.sas {
		if d != nil {
			d.resetBaseline()
		}
	}
	if m.gWarn != nil {
		m.gWarn.Set(0)
		m.gAlarm.Set(0)
		m.gFrozen.Set(0)
		m.gHorizon.Set(-1)
	}
}

// Generation returns the current baseline generation (0 until the
// first ResetBaseline).
func (m *Monitor) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.generation
}

// SAStatus is the externally visible per-SA drift state, served on
// /drift and summarized in vprofile detect's end-of-run table.
type SAStatus struct {
	SA     uint8  `json:"sa"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	Frames int64  `json:"frames"`
	// BaselineFrozen is false while the baseline is still filling.
	BaselineFrozen bool `json:"baseline_frozen"`

	// Distance quantiles: baseline (frozen) vs live (since freeze).
	BaselineP50 float64 `json:"baseline_p50"`
	BaselineP90 float64 `json:"baseline_p90"`
	LiveP50     float64 `json:"live_p50"`
	LiveP90     float64 `json:"live_p90"`
	LiveP99     float64 `json:"live_p99"`

	// Margin distribution (threshold − distance; negative = alarmed).
	MeanMargin float64 `json:"mean_margin"`
	MarginP50  float64 `json:"margin_p50"`

	// Detector scores.
	PHScore           float64 `json:"ph_score"`
	Divergence        float64 `json:"divergence"`
	Slope             float64 `json:"slope_per_frame"`
	FramesToThreshold float64 `json:"frames_to_threshold"` // -1 = not eroding
	FirstWarnSec      float64 `json:"first_warn_sec,omitempty"`
	FirstAlarmSec     float64 `json:"first_alarm_sec,omitempty"`
}

// Snapshot is the full /drift document for one bus.
type Snapshot struct {
	Bus        string     `json:"bus,omitempty"`
	Generation uint64     `json:"generation"`
	Warning    int        `json:"sas_warning"`
	Alarming   int        `json:"sas_alarm"`
	SAs        []SAStatus `json:"sas"`
}

// Status returns the current drift state of every observed SA,
// ordered by SA.
func (m *Monitor) Status() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{Bus: m.cfg.Bus, Generation: m.generation}
	for sa := 0; sa < 256; sa++ {
		d := m.sas[sa]
		if d == nil {
			continue
		}
		st := SAStatus{
			SA:             uint8(sa),
			State:          d.state.String(),
			Reason:         d.reason,
			Frames:         d.dist.Count(),
			BaselineFrozen: d.frozen,
			BaselineP50:    d.baseDist.Quantile(0.5),
			BaselineP90:    d.baseP90,
			LiveP50:        d.dist.Quantile(0.5),
			LiveP90:        d.dist.Quantile(0.9),
			LiveP99:        d.dist.Quantile(0.99),
			MeanMargin:     d.margin.Mean(),
			MarginP50:      d.margin.Quantile(0.5),
			PHScore:        d.ph.score,
			Divergence:     d.divergence,
			Slope:          d.slope,
			FirstWarnSec:   d.firstWarnT,
			FirstAlarmSec:  d.firstAlarmT,
		}
		if math.IsInf(d.framesToThreshold, 1) {
			st.FramesToThreshold = -1
		} else {
			st.FramesToThreshold = d.framesToThreshold
		}
		switch d.state {
		case Warn:
			snap.Warning++
		case Alarm:
			snap.Alarming++
		}
		snap.SAs = append(snap.SAs, st)
	}
	return snap
}

// States returns the per-SA drift states (only observed SAs), for
// end-of-run reporting.
func (m *Monitor) States() map[uint8]State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint8]State)
	for sa, d := range m.sas {
		if d != nil {
			out[uint8(sa)] = d.state
		}
	}
	return out
}

// mergedSketches returns clones of the per-SA distance sketches, for
// the fleet rollup.
func (m *Monitor) mergedSketches() map[uint8]*Sketch {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint8]*Sketch)
	for sa, d := range m.sas {
		if d != nil {
			out[uint8(sa)] = d.dist.Clone()
		}
	}
	return out
}

// Route returns the /drift handler for a single-bus metrics server.
func (m *Monitor) Route() obs.Route {
	return obs.Route{Pattern: "/drift", Handler: http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(m.Status())
		})}
}

// FleetSAStatus is one row of the fleet /drift rollup: a source
// address's merged distance distribution across all buses plus how
// many buses flag it. Sustained fleet-wide drift on the same SA is
// evidence for an environmental shift (temperature, supply) rather
// than a single compromised node.
type FleetSAStatus struct {
	SA            uint8   `json:"sa"`
	Buses         int     `json:"buses"`
	BusesWarning  int     `json:"buses_warning"`
	BusesAlarming int     `json:"buses_alarm"`
	MergedP50     float64 `json:"merged_p50"`
	MergedP90     float64 `json:"merged_p90"`
	MergedP99     float64 `json:"merged_p99"`
	Frames        int64   `json:"frames"`
}

// FleetSnapshot is the fleet /drift document: per-bus snapshots plus
// the cross-bus per-SA rollup.
type FleetSnapshot struct {
	Buses []Snapshot      `json:"buses"`
	SAs   []FleetSAStatus `json:"fleet_sas"`
}

// FleetRoute returns a /drift handler aggregating several monitors
// (one per bus). Monitors may still be observing; each is snapshotted
// under its own lock.
func FleetRoute(monitors []*Monitor) obs.Route {
	return obs.Route{Pattern: "/drift", Handler: http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			var snap FleetSnapshot
			type agg struct {
				sketch      *Sketch
				buses       int
				warn, alarm int
			}
			merged := make(map[uint8]*agg)
			for _, m := range monitors {
				s := m.Status()
				snap.Buses = append(snap.Buses, s)
				for sa, sk := range m.mergedSketches() {
					a := merged[sa]
					if a == nil {
						a = &agg{sketch: NewSketch()}
						merged[sa] = a
					}
					a.sketch.Merge(sk)
					a.buses++
				}
				for _, st := range s.SAs {
					switch st.State {
					case "warn":
						merged[st.SA].warn++
					case "alarm":
						merged[st.SA].alarm++
					}
				}
			}
			sas := make([]uint8, 0, len(merged))
			for sa := range merged {
				sas = append(sas, sa)
			}
			sort.Slice(sas, func(i, j int) bool { return sas[i] < sas[j] })
			for _, sa := range sas {
				a := merged[sa]
				snap.SAs = append(snap.SAs, FleetSAStatus{
					SA:            sa,
					Buses:         a.buses,
					BusesWarning:  a.warn,
					BusesAlarming: a.alarm,
					MergedP50:     a.sketch.Quantile(0.5),
					MergedP90:     a.sketch.Quantile(0.9),
					MergedP99:     a.sketch.Quantile(0.99),
					Frames:        a.sketch.Count(),
				})
			}
			sort.Slice(snap.Buses, func(i, j int) bool { return snap.Buses[i].Bus < snap.Buses[j].Bus })
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
		})}
}
