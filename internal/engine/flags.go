package engine

import (
	"flag"
	"time"
)

// Flags is the session flag set of the replay-driving CLI (vprofile
// detect, for one capture or a fleet of them). Registering it through
// RegisterFlags keeps its names, defaults and help text in one place,
// beside the options they translate to.
type Flags struct {
	Capture      string
	Model        string
	Workers      int
	MetricsAddr  string
	EventsPath   string
	FlightDir    string
	FlightWindow int
	Quarantine   bool
	Recover      bool
	Stall        time.Duration
	ModelWatch   time.Duration
	Incidents    bool
	MaxEvents    int
	Drift        bool
}

// RegisterFlags registers the shared session flags on fs and returns
// the struct they fill after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Capture, "capture", "", "capture file (plain or gzip); comma-separate several for fleet mode")
	fs.StringVar(&f.Model, "model", "", "trained vProfile model")
	fs.IntVar(&f.Workers, "workers", 0, "extraction worker pool size, 0 = GOMAXPROCS (fleet mode shares one pool of this size across buses)")
	fs.StringVar(&f.MetricsAddr, "metrics", "", "serve /metrics, /debug/pprof/ (and /debug/flight with -flight) on this address during the replay (e.g. :9090)")
	fs.StringVar(&f.EventsPath, "events", "", "write a JSONL event log (plus end-of-run stats snapshot) to this file")
	fs.StringVar(&f.FlightDir, "flight", "", "trace every frame and write forensic bundles around alarms into this directory")
	fs.IntVar(&f.FlightWindow, "flight-window", 8, "frames of pre/post context frozen around each alarm")
	fs.BoolVar(&f.Quarantine, "quarantine", false, "enable per-SA quarantine: senders with sustained voltage anomalies degrade and their alarms coalesce")
	fs.BoolVar(&f.Recover, "recover", false, "tolerate capture corruption: resync past damaged records instead of aborting")
	fs.DurationVar(&f.Stall, "stall-timeout", 0, "abort the replay if the verdict stream stalls this long (0 disables the watchdog)")
	fs.DurationVar(&f.ModelWatch, "model-watch", 0, "poll the model file at this interval and hot-swap it when rewritten (0 disables)")
	fs.BoolVar(&f.Incidents, "incidents", false, "correlate alarms into lifecycle-managed incidents (served on /fleet* with -metrics, tabulated at end of run)")
	fs.IntVar(&f.MaxEvents, "max-events", 1000000, "cap the events written to the -events log; past it events are dropped and counted (0 = unlimited)")
	fs.BoolVar(&f.Drift, "drift", false, "watch per-SA distance distributions for profile drift: baselines freeze at model load/swap, drift_warn/drift_alarm events fire on sustained shift, state served on /drift with -metrics")
	return f
}

// Options translates the parsed flags into session options. Capture
// is excluded — it names the session (or fleet) rather than
// configuring it.
func (f *Flags) Options() []Option {
	opts := []Option{
		WithModelPath(f.Model),
		WithWorkers(f.Workers),
		WithMetricsAddr(f.MetricsAddr),
		WithEventsPath(f.EventsPath),
		WithQuarantine(f.Quarantine),
		WithRecovery(f.Recover),
		WithStallTimeout(f.Stall),
		WithModelWatch(f.ModelWatch),
		WithIncidents(f.Incidents),
		WithMaxEvents(f.MaxEvents),
		WithDrift(f.Drift),
	}
	if f.FlightDir != "" {
		opts = append(opts, WithFlightRecorder(f.FlightDir, f.FlightWindow))
	}
	return opts
}
