package engine

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
)

// Fleet is the one host every session runs on: a lone Session is a
// one-member fleet, NewFleet(captures).Run replays a fixed capture
// list, and the daemon attaches and detaches a member per live feed.
// Members run concurrently over a single shared worker pool, so the
// extraction/scoring concurrency is bounded fleet-wide instead of
// multiplying per bus. Members are fail-isolated: one bus stalling or
// hitting unrecovered corruption ends that member's replay (its
// Summary carries the error) while the others run on.
//
// The fleet owns everything members share: the model stores (so a hot
// swap reaches every member scoring against the store), the worker
// pool, the per-bus metrics group and its HTTP server, the event
// outlet (JSONL log plus subscribers), the incident correlator and
// the model watch. Each member keeps its own pipeline, detectors,
// drift monitor and flight recorder.
type Fleet struct {
	// proto is the option set every member starts from.
	proto settings
	// captures/buses are NewFleet's fixed member list, replayed by Run.
	captures []string
	buses    []string

	store   *ModelStore // fleet-wide model (nil when every bus loads its own)
	pool    *pipeline.Pool
	group   *obs.Group // per-bus registries (nil when nothing exposes them)
	events  *obs.EventLog
	inc     *incident.Correlator
	srv     *obs.Server
	stop    chan struct{} // ends the model watch
	started time.Time

	subMu sync.RWMutex
	subs  []func(obs.Event)

	mu        sync.Mutex
	members   map[string]*Session
	busStores map[string]*ModelStore // LoadModel's per-bus models
	closed    bool
	running   sync.WaitGroup
	incidents []incident.Snapshot
}

// BusNames derives fleet bus names from capture paths: the base name
// with .vptr/.gz extensions stripped, deduplicated with -2, -3, ...
// suffixes so every session gets a distinct label.
func BusNames(captures []string) []string {
	out := make([]string, len(captures))
	seen := map[string]int{}
	for i, c := range captures {
		n := filepath.Base(c)
		n = strings.TrimSuffix(n, ".gz")
		n = strings.TrimSuffix(n, ".vptr")
		if n == "" || n == "." {
			n = fmt.Sprintf("bus%d", i)
		}
		seen[n]++
		if k := seen[n]; k > 1 {
			n = fmt.Sprintf("%s-%d", n, k)
		}
		out[i] = n
	}
	return out
}

// NewFleet starts a fleet host. The options are the ones a Session
// takes: model, workers, metrics, event log, incidents and model watch
// configure the shared runtime, and every other option is inherited by
// each member. captures lists the buses Run replays; a fleet without
// them hosts members added with Attach, and a fleet without a model
// needs LoadModel before each bus attaches. Run (or Close) releases it.
func NewFleet(captures []string, opts ...Option) (*Fleet, error) {
	f, err := newFleet(newSettings("", opts))
	if err != nil {
		return nil, err
	}
	f.captures, f.buses = captures, BusNames(captures)
	return f, nil
}

// newFleet builds the shared runtime from cfg: model store, event log,
// incident correlator, metrics server, worker pool and model watch.
func newFleet(cfg settings) (*Fleet, error) {
	f := &Fleet{
		proto:     cfg,
		members:   map[string]*Session{},
		busStores: map[string]*ModelStore{},
		started:   time.Now(),
	}
	logf := cfg.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var err error
	m := cfg.model
	if m == nil && cfg.modelPath != "" {
		if m, err = LoadModelFile(cfg.modelPath); err != nil {
			return nil, err
		}
	}
	if m != nil {
		if f.store, err = f.newStore(cfg.name, m); err != nil {
			return nil, err
		}
	}
	if cfg.watch > 0 && (cfg.modelPath == "" || f.store == nil) {
		return nil, errors.New("engine: model watch needs a model path")
	}
	f.pool = pipeline.NewPool(cfg.workers)
	if cfg.metricsAddr != "" || cfg.eventsPath != "" {
		f.group = obs.NewGroup("bus")
	}
	if cfg.eventsPath != "" {
		if f.events, err = obs.CreateEventLog(cfg.eventsPath); err != nil {
			f.pool.Close()
			return nil, err
		}
		if cfg.maxEvents > 0 {
			f.events.SetMaxEvents(cfg.maxEvents)
		}
	}
	if cfg.incidents {
		icfg := incident.Config{}
		if cfg.incCfg != nil {
			icfg = *cfg.incCfg
		}
		if icfg.Emit == nil {
			icfg.Emit = func(e obs.Event) { _ = f.emit(e) }
		}
		f.inc = incident.New(icfg)
	}
	if cfg.metricsAddr != "" {
		// Runtime self-telemetry lives on its own pseudo-bus member so
		// the process-wide gauges appear once, not once per bus, and
		// refresh at scrape time.
		rs := obs.NewRuntimeStats(f.group.Add("fleet", nil))
		var routes []obs.Route
		if f.inc != nil {
			routes = f.inc.Routes()
		}
		if cfg.drift {
			routes = append(routes, obs.Route{Pattern: "/drift", Handler: http.HandlerFunc(f.serveDrift)})
		}
		if cfg.flightDir != "" {
			routes = append(routes, obs.Route{Pattern: "/debug/flight", Handler: http.HandlerFunc(f.serveFlight)})
		}
		if f.srv, err = obs.Serve(cfg.metricsAddr, obs.CollectedExporter(f.group, rs.Collect), routes...); err != nil {
			_ = f.Close()
			return nil, err
		}
		logf("serving /metrics and /debug/pprof/ on http://%s", f.srv.Addr())
		if f.inc != nil {
			logf("fleet incidents live at http://%s/fleet", f.srv.Addr())
		}
		if cfg.flightDir != "" {
			logf("flight recorder live at http://%s/debug/flight", f.srv.Addr())
		}
	}
	if cfg.watch > 0 {
		f.stop = make(chan struct{})
		go f.store.Watch(cfg.modelPath, cfg.watch, f.stop, cfg.logf)
	}
	return f, nil
}

// newStore publishes m in a fleet-hosted store. Every swap emits one
// model_swap event (tagged bus) and updates the version gauge and the
// drift baselines of each member scoring against the store.
func (f *Fleet) newStore(bus string, m *core.Model) (*ModelStore, error) {
	st, err := NewModelStore(m)
	if err != nil {
		return nil, err
	}
	st.OnSwap(func(sm StoredModel) {
		_ = f.emit(obs.Event{
			TimeSec: time.Since(f.started).Seconds(), Kind: obs.EventModelSwap,
			Bus: bus, Severity: obs.SeverityInfo, Detail: modelSwapDetail(sm),
		})
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, s := range f.members {
			if s.store != st {
				continue
			}
			if s.version != nil {
				s.version.Set(int64(sm.Version))
			}
			if s.driftMon != nil {
				// A hot swap changes the distribution distances are drawn
				// from: baselines re-freeze against the new model instead
				// of reading the model change itself as drift.
				s.driftMon.ResetBaseline()
			}
		}
	})
	return st, nil
}

// LoadModel loads the model at path as bus's own: every member that
// attaches as bus scores against it until Detach(bus), and its swaps
// emit model_swap events tagged with bus. The returned store is the
// handle for swapping it and reading its version. A bus holds one
// model at a time; loading a second before Detach is an error.
func (f *Fleet) LoadModel(bus, path string) (*ModelStore, error) {
	m, err := LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	st, err := f.newStore(bus, m)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.busStores[bus]; dup {
		return nil, fmt.Errorf("engine: bus %q already has a model", bus)
	}
	f.busStores[bus] = st
	return st, nil
}

// Attach adds a member that streams bus's records from src, and
// returns it for the caller to Run (it leaves the fleet when Run
// returns). opts apply on top of the fleet's options for this member
// only — batch, quarantine, recovery, stall timeout, drift and flight
// recording; the shared runtime's options (model, workers, metrics,
// events, incidents, model watch) are the fleet's. The member owns
// src once Attach succeeds.
func (f *Fleet) Attach(bus string, src *StreamSource, opts ...Option) (*Session, error) {
	cfg := f.proto
	for _, o := range opts {
		o(&cfg)
	}
	cfg.name, cfg.capture, cfg.source = bus, "", src
	s := newSession(cfg)
	if err := f.adopt(s); err != nil {
		return nil, err
	}
	return s, nil
}

// adopt binds s to the fleet: its model store, per-bus registry,
// incident stream and drift monitor.
func (f *Fleet) adopt(s *Session) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("engine: fleet is closed")
	}
	if _, dup := f.members[s.name]; dup {
		return fmt.Errorf("engine: bus %q is already attached", s.name)
	}
	s.store = f.store
	if st := f.busStores[s.name]; st != nil {
		s.store = st
	}
	if s.store == nil {
		return errors.New("engine: session needs a model (WithModel, WithModelPath or Fleet.LoadModel)")
	}
	s.host = f
	s.label = s.name
	if s.label == "" {
		s.label = BusNames([]string{s.capture})[0]
	}
	if f.group != nil {
		s.reg = f.group.Add(s.label, nil)
		s.version = s.reg.Gauge("vprofile_engine_model_version",
			"current hot-swap model generation (1 = the model loaded at start)")
		s.version.Set(int64(s.store.Version()))
	}
	if f.inc != nil {
		s.incStream = bindIncidents(f.inc, s.label, s.reg)
	}
	if s.drift {
		s.driftMon = newDriftMonitor(s)
	}
	f.members[s.name] = s
	return nil
}

// begin admits a member's Run; Close waits for every admitted Run.
func (f *Fleet) begin() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("engine: fleet is closed")
	}
	f.running.Add(1)
	return nil
}

// leave ends a member's Run: the bus name is free to attach again.
func (f *Fleet) leave(s *Session) {
	f.mu.Lock()
	if f.members[s.name] == s {
		delete(f.members, s.name)
	}
	f.mu.Unlock()
	f.running.Done()
}

// Detach asks bus's member to drain at its next record boundary (its
// Run then returns a complete Summary) and drops the bus's LoadModel
// store. It does not wait for the member.
func (f *Fleet) Detach(bus string) {
	f.mu.Lock()
	s := f.members[bus]
	delete(f.busStores, bus)
	f.mu.Unlock()
	if s != nil {
		s.Stop()
	}
}

// Subscribe registers fn to receive every event the fleet's outlet
// carries: members' alarms, flight bundles, drift transitions, model
// swaps and incident lifecycle records. fn is called synchronously on
// the emitting goroutine and must not block.
func (f *Fleet) Subscribe(fn func(obs.Event)) {
	f.subMu.Lock()
	f.subs = append(f.subs[:len(f.subs):len(f.subs)], fn)
	f.subMu.Unlock()
}

// emit is the single event outlet: the JSONL log, then every
// subscriber. It returns the event log's write error (nil without a
// log).
func (f *Fleet) emit(e obs.Event) error {
	var err error
	if f.events != nil {
		err = f.events.Emit(e)
	}
	f.subMu.RLock()
	subs := f.subs
	f.subMu.RUnlock()
	for _, fn := range subs {
		fn(e)
	}
	return err
}

// writeStats appends a member's end-of-run registry snapshot to the
// event log — a log record, not an outlet event.
func (f *Fleet) writeStats(s *Session) {
	if f.events != nil && s.reg != nil {
		_ = f.events.Emit(obs.Event{Kind: obs.EventStats, Bus: s.label, Stats: s.reg.Snapshot()})
	}
}

// Buses returns the derived bus names, in capture order.
func (f *Fleet) Buses() []string { return append([]string(nil), f.buses...) }

// Run replays every capture concurrently, delivering all verdicts to
// one serialised sink (each bus's results stay in record order; buses
// interleave), then closes the fleet. It returns one Summary per
// capture, in capture order — present even for failed buses, with
// Summary.Err set — and the joined error of every failed bus.
// errors.As still finds *AbortError through the join, so exit-code
// classification works unchanged on a fleet.
func (f *Fleet) Run(sink Sink) ([]Summary, error) {
	var sinkMu sync.Mutex
	serial := sink
	if serial != nil {
		serial = func(r Result) error {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			return sink(r)
		}
	}

	summaries := make([]Summary, len(f.captures))
	var wg sync.WaitGroup
	for i, capture := range f.captures {
		bus := f.buses[i]
		summaries[i] = Summary{Bus: bus, Capture: capture, Tally: NewTally()}
		var opts []Option
		if f.proto.flightDir != "" {
			// Each bus's bundles go under their own subdirectory.
			opts = append(opts, WithFlightRecorder(filepath.Join(f.proto.flightDir, bus), f.proto.flightWindow))
		}
		src, err := OpenCaptureSource(capture)
		var s *Session
		if err == nil {
			if s, err = f.Attach(bus, src, opts...); err != nil {
				_ = src.Close()
			}
		}
		if err != nil {
			summaries[i].Err = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, err := s.Run(serial)
			sum.Err = err
			summaries[i] = sum
		}()
	}
	wg.Wait()
	cerr := f.Close()

	errs := make([]error, 0, len(summaries)+1)
	for i := range summaries {
		if summaries[i].Err != nil {
			errs = append(errs, fmt.Errorf("bus %s: %w", summaries[i].Bus, summaries[i].Err))
		}
	}
	if cerr != nil {
		errs = append(errs, cerr)
	}
	return summaries, errors.Join(errs...)
}

// Close stops every member, waits for their Runs to return, and
// releases the shared runtime: model watch, metrics server, worker
// pool, incident correlator (open incidents resolve as end-of-run)
// and event log, in that order. It returns the event log's error. A
// second Close is a no-op.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	members := make([]*Session, 0, len(f.members))
	for _, s := range f.members {
		members = append(members, s)
	}
	f.mu.Unlock()
	for _, s := range members {
		s.Stop()
	}
	f.running.Wait()

	if f.stop != nil {
		close(f.stop)
	}
	if f.srv != nil {
		// Drain in-flight scrapes briefly instead of cutting them off
		// mid-response.
		_ = f.srv.ShutdownTimeout(2 * time.Second)
	}
	f.pool.Close()
	if f.inc != nil {
		// Resolve survivors before the log closes so every lifecycle
		// event — end-of-run resolutions included — lands in it.
		f.incidents = f.inc.CloseOut()
	}
	if f.events != nil {
		// Members contributed their own stats records.
		return f.events.Close(nil)
	}
	return nil
}

// serveDrift is the /drift rollup across the running members.
func (f *Fleet) serveDrift(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	var mons []*drift.Monitor
	for _, s := range f.members {
		if s.driftMon != nil {
			mons = append(mons, s.driftMon)
		}
	}
	f.mu.Unlock()
	drift.FleetRoute(mons).Handler.ServeHTTP(w, r)
}

// serveFlight routes /debug/flight to a running member's flight
// recorder: the one named by ?bus=, or the only one recording.
func (f *Fleet) serveFlight(w http.ResponseWriter, r *http.Request) {
	bus := r.URL.Query().Get("bus")
	var rec *tracing.Recorder
	n := 0
	f.mu.Lock()
	for name, s := range f.members {
		if sr := s.recorder(); sr != nil && (bus == "" || name == bus) {
			rec, n = sr, n+1
		}
	}
	f.mu.Unlock()
	if n != 1 {
		http.Error(w, "no single recording bus: name one with ?bus=", http.StatusNotFound)
		return
	}
	rec.ServeHTTP(w, r)
}
