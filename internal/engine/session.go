package engine

import (
	"errors"
	"slices"
	"sync"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// AbortError marks a replay that died mid-stream — the verdict stream
// is incomplete, as opposed to a configuration error that prevented
// it from starting. The CLIs map it to a distinct exit code (3) so
// scripts can tell "the capture went bad under us" (stall watchdog,
// unrecovered corruption) from ordinary usage errors.
type AbortError struct{ Err error }

func (e *AbortError) Error() string { return "replay aborted: " + e.Err.Error() }
func (e *AbortError) Unwrap() error { return e.Err }

// classify wraps mid-stream death in AbortError and passes everything
// else through.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, pipeline.ErrStalled) || errors.Is(err, trace.ErrCorrupt) {
		return &AbortError{Err: err}
	}
	return err
}

// ExtractionFor derives the edge-set extraction parameters from a
// capture header (edgeset.ConfigFor).
func ExtractionFor(h trace.Header) edgeset.Config { return edgeset.ConfigFor(h.ADC, h.BitRate) }

// Result is one record's verdict tagged with the bus it came from
// (empty on single-bus runs). It carries pipeline.Result's aliasing
// contract: Frame and Record (its header and Data), and so Frame.Data,
// are recycled once the sink call returns, traced session or not, so a
// sink must copy whatever of them it keeps. Record holds no samples
// (its Trace is empty): the verdict is scored from the packed codes.
// Bus, Index, Verdict, Trace and Events may be kept freely.
type Result struct {
	Bus string
	pipeline.Result
	// Events are the verdict events the session's tally derived from
	// this result and already sent through the event outlet, tagged
	// with Bus (nil for an unremarkable frame).
	Events []obs.Event
}

// Sink receives results in record order (per bus). A non-nil error
// stops that bus's replay. A fleet serialises the calls, so one sink
// may be shared across buses without locking. The Result's record
// buffers are valid only for the duration of the call (see Result).
type Sink func(Result) error

// Summary is everything a session learned by the end of its replay —
// the data the CLIs print after the verdict stream finishes.
type Summary struct {
	Bus     string
	Capture string
	Header  trace.Header
	Stats   pipeline.Stats
	// Corruptions lists the damaged stretches a recovery-enabled reader
	// resynced past.
	Corruptions []trace.RecoveredCorruption
	// SilentStreams and DegradedSAs snapshot the stateful detectors at
	// end of capture.
	SilentStreams []uint32
	DegradedSAs   int
	// Flight is the flight recorder's accounting (nil when off).
	Flight *tracing.Stats
	// ModelVersion is the model generation at end of replay;
	// ModelSwaps counts hot swaps observed during it.
	ModelVersion int
	ModelSwaps   int
	// Incidents is the incident history of a lone session that ran
	// with WithIncidents (nil otherwise; fleet members report through
	// Fleet.Incidents instead).
	Incidents []incident.Snapshot
	// Drift is the end-of-run drift-detector snapshot (nil when the
	// drift layer is off).
	Drift *drift.Snapshot
	// Gaps is the datagram sequence-gap accounting for lossy (UDP)
	// stream sources; nil for files and lossless sockets.
	Gaps *trace.GapStats
	// Live is true on a mid-stream Snapshot — the replay is still
	// running and end-of-run-only fields (SilentStreams, Incidents,
	// Flight) are not populated yet.
	Live bool
	// Tally is the session's verdict accounting: the summary counters,
	// the per-SA table and the source of every verdict event. It is set
	// on every Summary Run returns and on every Summary of Fleet.Run
	// (empty for a bus that never started), and nil on a Live snapshot,
	// whose tally ReadTally reads in place.
	Tally *Tally
	// Err is the session's replay error — populated on fleet runs,
	// where one bus's failure must not hide the others' summaries.
	Err error
}

// settings is the option set. A Session replays with its own copy; a
// Fleet keeps one as the template every member is built from, so a
// member carries every option the fleet was given.
type settings struct {
	capture string
	name    string
	// source, when set, replaces opening the capture file: the session
	// streams records from it instead (live ingestion).
	source *StreamSource

	model     *core.Model
	modelPath string

	workers int
	// batch bounds the pipeline's records per batch (0 =
	// pipeline.DefaultBatch). No option sets it: a live feed ships what
	// has arrived, so no bound buys latency. Only the engine's own tests
	// sweep it, through export_test.go.
	batch int

	metricsAddr  string
	eventsPath   string
	maxEvents    int
	flightDir    string
	flightWindow int

	quarantine bool
	quarCfg    *ids.QuarantineConfig
	recovery   bool
	stall      time.Duration
	watch      time.Duration

	incidents bool
	incCfg    *incident.Config
	drift     bool
	driftCfg  *drift.Config

	logf func(format string, args ...any)
}

func newSettings(capture string, opts []Option) settings {
	cfg := settings{capture: capture, flightWindow: 8}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Session is one capture→verdict run: it opens the source, builds the
// composite IDS and runs the concurrent replay on a Fleet's shared
// runtime. Build with NewSession + options (or Fleet.Attach), run once
// with Run. The zero value is not usable.
type Session struct {
	settings

	// Bound when the session joins its host fleet and immutable after:
	// label names its metrics, stats record and incident evidence (the
	// bus name, or the capture's derived name on a lone run); reg,
	// version, incStream and driftMon are its per-bus instruments.
	host      *Fleet
	label     string
	store     *ModelStore
	reg       *obs.Registry
	version   *obs.Gauge
	incStream *incident.BusStream
	driftMon  *drift.Monitor

	// live is the state a mid-stream Snapshot reads while Run is in
	// flight: everything in it is either immutable after Run's setup
	// (src, startVersion), internally synchronised
	// (pipeline.Replayer.Stats, trace.Reader.Corruptions), written
	// exactly once at the end (final), or written by the sequencer
	// under mu (tally), so the snapshot never touches the composite's
	// unsynchronised quarantine state.
	live struct {
		mu           sync.Mutex
		src          *StreamSource
		rep          *pipeline.Replayer
		recorder     *tracing.Recorder
		tally        *Tally
		startVersion int
		started      bool
		stopEarly    bool
		final        *Summary
	}
}

// Option configures a Session, or every member of a Fleet.
type Option func(*settings)

// WithName tags the session's results, events and metrics with a bus
// name. Fleets derive names from capture filenames automatically.
func WithName(name string) Option { return func(s *settings) { s.name = name } }

// WithModelPath lazily loads the model from disk (LoadModelFile).
func WithModelPath(path string) Option { return func(s *settings) { s.modelPath = path } }

// WithModel supplies an already-loaded model.
func WithModel(m *core.Model) Option { return func(s *settings) { s.model = m } }

// WithWorkers sets the extraction pool size (0 = GOMAXPROCS). A fleet
// shares one pool of this size across all its buses.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithMetricsAddr serves /metrics, /metrics.json, /debug/pprof/ (and
// /debug/flight when flight recording) for the replay's duration.
func WithMetricsAddr(addr string) Option { return func(s *settings) { s.metricsAddr = addr } }

// WithEventsPath writes a JSONL event log (plus an end-of-run stats
// record per bus) to path.
func WithEventsPath(path string) Option { return func(s *settings) { s.eventsPath = path } }

// WithFlightRecorder traces every frame and freezes forensic bundles
// around alarms into dir, with window frames of pre/post context.
func WithFlightRecorder(dir string, window int) Option {
	return func(s *settings) { s.flightDir, s.flightWindow = dir, window }
}

// WithQuarantine enables the per-SA degradation state machine.
func WithQuarantine(on bool) Option { return func(s *settings) { s.quarantine = on } }

// WithQuarantineConfig enables quarantine with explicit thresholds
// (the fleet policy's per-bus tuning); zero fields take the defaults.
func WithQuarantineConfig(cfg ids.QuarantineConfig) Option {
	return func(s *settings) { s.quarantine, s.quarCfg = true, &cfg }
}

// WithSource streams records from an already-attached source instead
// of opening a capture file — the live-ingestion path. The session
// takes ownership (Run closes it).
func WithSource(src *StreamSource) Option { return func(s *settings) { s.source = src } }

// WithRecovery tolerates capture corruption: the reader resyncs past
// damaged records instead of aborting.
func WithRecovery(on bool) Option { return func(s *settings) { s.recovery = on } }

// WithStallTimeout arms the slow-sink watchdog (0 disables).
func WithStallTimeout(d time.Duration) Option { return func(s *settings) { s.stall = d } }

// WithModelWatch polls the model file every interval and hot-swaps
// the model when it changes (0 disables). Requires WithModelPath.
func WithModelWatch(interval time.Duration) Option {
	return func(s *settings) { s.watch = interval }
}

// WithLogf routes informational messages (serving addresses, model
// swaps); nil silences them.
func WithLogf(fn func(format string, args ...any)) Option { return func(s *settings) { s.logf = fn } }

// NewSession builds a session over one capture file.
func NewSession(capture string, opts ...Option) *Session {
	return newSession(newSettings(capture, opts))
}

func newSession(cfg settings) *Session {
	s := &Session{settings: cfg}
	s.live.tally = NewTally()
	return s
}

// emit sends one event through the host fleet's outlet, tagged with
// the session's bus name.
func (s *Session) emit(e obs.Event) error {
	if e.Bus == "" {
		e.Bus = s.name
	}
	return s.host.emit(e)
}

// emitFunc adapts a function to the flight recorder's event outlet.
type emitFunc func(obs.Event) error

func (fn emitFunc) Emit(e obs.Event) error { return fn(e) }

// Run replays the capture to completion (or first error), delivering
// verdicts to sink in record order; sink may be nil. Every result
// folds into the session's Tally first, and the events it derives go
// out through the host fleet's event outlet — an outlet write error
// stops the replay. Run may be called once; the returned Summary is
// valid even on error (with the fields reached so far). Mid-stream
// death (stall watchdog, unrecovered corruption) comes back wrapped in
// *AbortError.
//
// A session from Fleet.Attach runs on that fleet. Any other session
// runs as the only member of a fleet of its own, which serves its
// metrics, writes its event log and correlates its incidents for the
// duration of the run.
func (s *Session) Run(sink Sink) (Summary, error) {
	lone := s.host == nil
	if lone {
		f, err := newFleet(s.settings)
		if err == nil {
			if err = f.adopt(s); err != nil {
				_ = f.Close()
			}
		}
		if err != nil {
			s.closeSource()
			return Summary{Bus: s.name, Capture: s.capture, Tally: s.live.tally}, err
		}
	}
	sum, err := s.run(sink)
	if lone {
		if cerr := s.host.Close(); cerr != nil && err == nil {
			err = cerr
		}
		sum.Incidents = s.host.Incidents()
	}
	s.live.mu.Lock()
	final := sum
	s.live.final = &final
	s.live.mu.Unlock()
	return sum, err
}

// run is the member replay on the host's shared runtime.
func (s *Session) run(sink Sink) (Summary, error) {
	sum := Summary{Bus: s.name, Capture: s.capture, Tally: s.live.tally}
	f := s.host
	if err := f.begin(); err != nil {
		s.closeSource()
		return sum, err
	}
	defer f.leave(s)
	startVersion := s.store.Version()

	var err error
	rd := s.source
	if rd == nil {
		rd, err = OpenCaptureSource(s.capture)
		if err != nil {
			return sum, err
		}
	}
	defer rd.Close()
	if sum.Capture == "" {
		sum.Capture = rd.Name()
	}
	if s.recovery {
		rd.EnableRecovery()
	}
	h := rd.Header()
	sum.Header = h

	var pm *pipeline.Metrics
	var im *ids.Metrics
	if s.reg != nil {
		pm = pipeline.NewMetrics(s.reg)
		im = ids.NewMetrics(s.reg)
		rd.SetMetrics(trace.NewMetrics(s.reg))
	}
	var recorder *tracing.Recorder
	if s.flightDir != "" {
		rcfg := tracing.RecorderConfig{
			Window: s.flightWindow, Dir: s.flightDir, Header: h, Events: emitFunc(s.emit),
		}
		if stream := s.incStream; stream != nil {
			// Stamp each finished bundle with the incident that was open
			// for its (bus, SA) — and file the bundle as incident
			// evidence — before it hits disk, so bundle.json carries the
			// join key.
			rcfg.Tag = func(b *tracing.Bundle) {
				b.Incident = stream.LinkBundle(b.SA, b.DirName())
			}
		}
		recorder, err = tracing.NewRecorder(rcfg)
		if err != nil {
			return sum, err
		}
	}

	s.live.mu.Lock()
	s.live.src = rd
	s.live.recorder = recorder
	s.live.startVersion = startVersion
	s.live.started = true
	if s.live.stopEarly {
		// Stop raced ahead of Run: honour it before the first record.
		rd.Stop()
	}
	s.live.mu.Unlock()

	mcfg := ids.CompositeConfig{Extraction: ExtractionFor(h), Models: s.store, Metrics: im}
	if s.quarantine {
		mcfg.Quarantine = &ids.QuarantineConfig{}
		if s.quarCfg != nil {
			mcfg.Quarantine = s.quarCfg
		}
		if stream := s.incStream; stream != nil {
			// Quarantine transitions reach the incident layer as
			// structured notifications, not by polling: degradation
			// escalates the covering incident and counts toward the
			// bus's health occupancy. Sequence runs single-goroutine, in
			// record order — exactly the order the correlator wants.
			mcfg.OnQuarantine = func(ch ids.QuarantineChange) {
				stream.ObserveQuarantine(ch.SA, ch.To.String(), ch.AtSec)
			}
		}
	}
	mon, err := ids.NewComposite(nil, mcfg)
	if err != nil {
		return sum, err
	}

	// Every verdict folds into the tally, under the lock a mid-stream
	// ReadTally or Snapshot takes, and the events it derives go out
	// through the fleet outlet before the user sink sees the result.
	// This is the one place verdict events are made. The tally reuses
	// its event slice, so only a user sink, which may keep
	// Result.Events, gets a copy.
	bus, tally := s.name, s.live.tally
	pfn := func(r pipeline.Result) error {
		s.live.mu.Lock()
		events := tally.Observe(r)
		s.live.mu.Unlock()
		for i := range events {
			events[i].Bus = bus
			if err := f.emit(events[i]); err != nil {
				return err
			}
		}
		if sink != nil {
			return sink(Result{Bus: bus, Result: r, Events: slices.Clone(events)})
		}
		return nil
	}
	if s.driftMon != nil {
		// Scored frames feed the drift sketches. Wrapped before the
		// incident layer so per frame the correlator sees alarm evidence
		// first and drift transitions second (the correlator re-checks
		// standing drift on every alarm anyway).
		dm, store, inner := s.driftMon, s.store, pfn
		pfn = func(r pipeline.Result) error {
			observeDrift(dm, store, r)
			return inner(r)
		}
	}
	if stream := s.incStream; stream != nil {
		// Every verdict feeds the correlator, before the tally and the
		// user sink, so a mid-run /fleet scrape is never behind the
		// verdict stream.
		inner := pfn
		pfn = func(r pipeline.Result) error {
			stream.Observe(incidentEvidence(r))
			return inner(r)
		}
	}
	rep, err := pipeline.New(mon, pipeline.Config{
		Batch: s.batch, Pool: f.pool, Metrics: pm, Recorder: recorder, StallTimeout: s.stall,
	})
	if err != nil {
		return sum, err
	}
	s.live.mu.Lock()
	s.live.rep = rep
	s.live.mu.Unlock()
	err = rep.Run(rd, pfn)
	sum.Stats = rep.Stats()
	if recorder != nil {
		// Close before the stats record: flushing truncated capture
		// windows emits their flight events.
		if cerr := recorder.Close(); cerr != nil && err == nil {
			err = cerr
		}
		fs := recorder.Stats()
		sum.Flight = &fs
	}
	f.writeStats(s)
	if s.driftMon != nil {
		snap := s.driftMon.Status()
		sum.Drift = &snap
	}
	sum.Corruptions = rd.Corruptions()
	sum.SilentStreams = mon.SilentStreams()
	sum.DegradedSAs = mon.DegradedSAs()
	sum.ModelVersion = s.store.Version()
	sum.ModelSwaps = sum.ModelVersion - startVersion
	sum.Gaps = rd.Gaps()
	return sum, classify(err)
}

// closeSource closes a WithSource source on a path that returns before
// the replay opens it: the session owns the source either way.
func (s *Session) closeSource() {
	if s.source != nil {
		_ = s.source.Close()
	}
}

// Stop asks a running session to drain: the stream source ends at the
// next record boundary (interrupting a blocked transport read), the
// pipeline flushes, and Run returns with a complete Summary. Calling
// Stop before Run makes Run drain immediately after setup; calling it
// after Run returned is a no-op.
func (s *Session) Stop() {
	s.live.mu.Lock()
	src := s.live.src
	if src == nil {
		s.live.stopEarly = true
	}
	s.live.mu.Unlock()
	if src != nil {
		src.Stop()
	}
}

// recorder returns the running session's flight recorder (nil when off
// or not yet running).
func (s *Session) recorder() *tracing.Recorder {
	s.live.mu.Lock()
	defer s.live.mu.Unlock()
	return s.live.recorder
}

// ReadTally returns the session's tally counters and per-SA rows,
// read in place under the session's lock, so it is safe at any time,
// mid-run included.
func (s *Session) ReadTally() (TallyCounts, []TallyRow) {
	s.live.mu.Lock()
	defer s.live.mu.Unlock()
	return s.live.tally.TallyCounts, s.live.tally.Rows()
}

// Snapshot returns the session's state as of now, safe to call from
// any goroutine at any time. Before Run starts streaming it returns a
// zero summary; while the replay is live it returns a mid-stream view
// (Live=true) with Stats, Corruptions, DegradedSAs, model versioning,
// drift status and datagram gaps populated — SilentStreams, Incidents
// and Flight are end-of-run analyses and stay empty, and the tally is
// read with ReadTally; after Run it returns the final Summary.
func (s *Session) Snapshot() Summary {
	s.live.mu.Lock()
	if s.live.final != nil {
		sum := *s.live.final
		s.live.mu.Unlock()
		return sum
	}
	src, rep, startVersion, started := s.live.src, s.live.rep, s.live.startVersion, s.live.started
	degraded := s.live.tally.degradedSAs()
	s.live.mu.Unlock()

	sum := Summary{Bus: s.name, Capture: s.capture}
	if !started {
		return sum
	}
	sum.Live = true
	if sum.Capture == "" {
		sum.Capture = src.Name()
	}
	sum.Header = src.Header()
	if rep != nil {
		sum.Stats = rep.Stats()
	}
	sum.Corruptions = src.Corruptions()
	sum.DegradedSAs = degraded
	sum.ModelVersion = s.store.Version()
	sum.ModelSwaps = sum.ModelVersion - startVersion
	if s.driftMon != nil {
		snap := s.driftMon.Status()
		sum.Drift = &snap
	}
	sum.Gaps = src.Gaps()
	return sum
}
