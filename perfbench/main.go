// Command perfbench is the repository's end-to-end benchmark. It drives
// the vprofiled data path in-process — controlserver.New, Daemon.Attach,
// unix-socket ingest, engine session, tally, event hub, Daemon.Events —
// on one of two workloads generated from a seed, checks every verdict
// against a sequential reference replay, and prints one JSON result as
// the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload replay-bare --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a traced run
// that reports the per-layer metrics. DESIGN.md in this directory
// records why each workload exists and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vprofile/internal/attack"
	"vprofile/internal/control/controlapi"
)

// workload is one load shape on the daemon.
type workload struct {
	name     string
	scenario string // corpus scenario every bus is fed
	buses    int    // buses on the daemon, one connection each
	// rate is the open-loop send rate per bus in frames/s; zero is the
	// closed loop, streaming as fast as the socket accepts.
	rate float64
}

// senders is how many sender goroutines a workload uses: every load
// comes from one goroutine, whatever the number of connections.
const senders = 1

var workloads = []workload{
	{name: "replay-bare", scenario: "clean", buses: 1},
	{name: "live-hijack", scenario: "hijack", buses: 2, rate: 2000},
}

// spec is the bus spec the workload attaches: the defaults, nothing
// optional on.
func (w workload) spec(bus, sock, model string) controlapi.BusSpec {
	return controlapi.BusSpec{Bus: bus, Listen: "unix://" + sock, Model: model}
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the daemon sees, reported on every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"frames_per_s", "frames/s", "higher"},
	{"cpu_us_per_frame", "us", "lower"},
	{"allocs_per_frame", "count", "lower"},
	{"alloc_kb_per_frame", "KiB", "lower"},
	{"verdict_latency_p50_ms", "ms", "lower"},
	{"verdict_latency_p99_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, named by module.
var perLayer = []metricDef{
	{"trace.read_ns", "ns", "lower"},
	{"trace.read_recover_ns", "ns", "lower"},
	{"trace.decode_ns", "ns", "lower"},
	{"trace.allocs", "count", "lower"},
	{"edgeset.extract_ns", "ns", "lower"},
	{"edgeset.allocs", "count", "lower"},
	{"edgeset.fail_ratio", "ratio", "lower"},
	{"core.score_ns", "ns", "lower"},
	{"core.allocs", "count", "lower"},
	{"ids.verdict_ns", "ns", "lower"},
	{"ids.sequence_ns", "ns", "lower"},
	{"ids.sequence_quarantine_ns", "ns", "lower"},
	{"ids.alarm_ratio", "ratio", "lower"},
	{"ids.tpr", "ratio", "higher"},
	{"ids.fpr", "ratio", "lower"},
	{"tracing.verdict_traced_ns", "ns", "lower"},
	{"tracing.record_ns", "ns", "lower"},
	{"tracing.allocs", "count", "lower"},
	{"drift.observe_ns", "ns", "lower"},
	{"engine.tally_ns", "ns", "lower"},
	{"engine.events_per_kframe", "count", "lower"},
	{"pipeline.utilization", "ratio", "higher"},
	{"pipeline.busy_us_per_frame", "us", "lower"},
	{"pipeline.records_lost", "count", "lower"},
	{"pipeline.wait_ms_p50", "ms", "lower"},
	{"pipeline.wait_ms_p99", "ms", "lower"},
	{"control.attach_ms", "ms", "lower"},
	{"control.poll_us", "us", "lower"},
	{"control.events_per_poll", "count", "higher"},
	{"control.alarms_dropped", "count", "lower"},
	{"runtime.gc_cycles_per_kframe", "count", "lower"},
	{"runtime.gc_pause_us_per_kframe", "us", "lower"},
	{"runtime.goroutines_leaked", "count", "lower"},
	{"bench.latency_samples", "count", "higher"},
	{"bench.send_lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is where inputs are cached and sockets live while a run is
	// in progress.
	work string
	// short shrinks the inputs for the self-test.
	short bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CorpusVersion int     `json:"corpus_version"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Records       int     `json:"records_per_bus"`
	Buses         int     `json:"buses"`
	Connections   int     `json:"connections"`
	Senders       int     `json:"sender_goroutines"`
}

func main() {
	if os.Getenv(senderEnv) == "1" {
		os.Exit(senderMain(os.Args[1:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: replay-bare or live-hijack")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "work directory (inputs cache, sockets)")
	flag.Parse()
	cfg.trace = trace == 1
	res, env, notes, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("perfbench env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// sizes returns the records per bus and the set-up repetitions.
func (cfg config) sizes(w workload) (records, setupReps int) {
	switch {
	case w.rate > 0:
		records = int(w.rate * cfg.seconds)
	case cfg.short:
		records = 300
	default:
		// One pass is one engine session; 8000 records keep a pass
		// around 0.1 s at saturation, so per-session set-up and the
		// end-of-pass drain stay a small share of the window.
		records = 8000
	}
	if cfg.short {
		return records, 3
	}
	return records, 21
}

// run executes one benchmark invocation.
func run(cfg config) (*result, environment, []string, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, environment{}, nil, err
	}
	if cfg.seconds <= 0 {
		return nil, environment{}, nil, errors.New("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	records, reps := cfg.sizes(w)
	env := environment{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CorpusVersion: attack.CorpusVersion, Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Records: records, Buses: w.buses, Connections: w.buses, Senders: senders,
	}
	if w.buses > nproc || senders > nproc {
		return nil, env, nil, fmt.Errorf("%s needs %d connections and %d sender goroutines, more than nproc=%d", w.name, w.buses, senders, nproc)
	}

	in, err := loadInputs(filepath.Join(cfg.work, "inputs"), cfg.seed, w.scenario, records)
	if err != nil {
		return nil, env, nil, fmt.Errorf("inputs: %w", err)
	}
	if err := in.truncate(records); err != nil {
		return nil, env, nil, fmt.Errorf("inputs: %w", err)
	}
	ref, err := replayReference(in)
	if err != nil {
		return nil, env, nil, fmt.Errorf("reference: %w", err)
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, env, nil, err
	}
	defer os.RemoveAll(runDir)

	base := runtime.NumGoroutine()
	dr, err := startDaemon(w, in, runDir, reps)
	if err != nil {
		return nil, env, nil, err
	}
	var load *loadResult
	if w.rate > 0 {
		load, err = runLive(dr, in, ref, w.rate)
	} else {
		load, err = runReplay(dr, in, ref, time.Duration(cfg.seconds*float64(time.Second)))
	}
	code := dr.d.Drain(10 * time.Second)
	if err != nil {
		return nil, env, nil, err
	}
	leaked := settleGoroutines(base, 2*time.Second)
	if code != 0 {
		load.problems = append(load.problems, fmt.Sprintf("drain exited %d", code))
	}
	if leaked != 0 {
		load.problems = append(load.problems, fmt.Sprintf("%d goroutines leaked past the drain", leaked))
	}

	res := &result{
		Correct:   len(load.problems) == 0,
		Attempted: load.sent,
		Failed:    load.failed,
		Metrics:   map[string]metric{},
	}
	lat50 := load.medianOf(func(w window) float64 { return float64(w.lat50) / 1e6 })
	lat99 := load.medianOf(func(w window) float64 { return float64(w.lat99) / 1e6 })
	notes := append([]string{}, load.problems...)
	notes = append(notes, fmt.Sprintf("reference replay of one feed: %d frames, %d voltage alarms, %d preprocess failures, %d timing alarms, %d transport errors, %d suppressed",
		ref.tally.Frames(), ref.tally.VoltAlarms, ref.tally.PreprocFailed, ref.tally.PeriodAlarms, ref.tally.TPErrors, ref.tally.Suppressed))
	notes = append(notes, fmt.Sprintf("%s seed %d: %d frames in %.2fs, %d latency samples, send lag p99 %.3fms, tpr %.4f fpr %.4f, alarms dropped %d, goroutines leaked %d",
		w.name, cfg.seed, load.sent, load.wall.Seconds(), load.samples,
		load.lagP99.Seconds()*1e3, load.tpr, load.fpr, load.dropped, leaked))

	if !cfg.trace {
		put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
		put("setup_s", median(dr.setup))
		put("cpu_us_per_frame", load.medianOf(func(w window) float64 { return w.use.cpu.Seconds() * 1e6 / float64(w.frames) }))
		put("allocs_per_frame", load.medianOf(func(w window) float64 { return float64(w.use.mallocs) / float64(w.frames) }))
		put("alloc_kb_per_frame", load.medianOf(func(w window) float64 { return float64(w.use.bytes) / 1024 / float64(w.frames) }))
		put("verdict_latency_p50_ms", lat50)
		put("verdict_latency_p99_ms", lat99)
		if w.rate > 0 {
			// Open loop: throughput is the offered rate as long as the
			// daemon keeps up.
			put("frames_per_s", float64(load.timed)/load.wall.Seconds())
		} else {
			put("frames_per_s", load.medianOf(func(w window) float64 { return float64(w.frames) / w.dur.Seconds() }))
		}
		return res, env, notes, nil
	}

	layers, err := traceLayers(in)
	if err != nil {
		return nil, env, nil, fmt.Errorf("traced run: %w", err)
	}
	if layers.recordsLost != 0 {
		res.Correct = false
		notes = append(notes, fmt.Sprintf("traced session lost %d records (RecordsIn != RecordsOut)", layers.recordsLost))
	}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)} }
	for name, v := range layers.metrics {
		put(name, v)
	}
	self := layers.pathSelfNS / 1e6
	put("pipeline.wait_ms_p50", lat50-self)
	put("pipeline.wait_ms_p99", lat99-self)
	put("pipeline.records_lost", float64(layers.recordsLost))
	put("control.attach_ms", median(dr.attach))
	var pollUS, perPoll float64
	if load.polls > 0 {
		pollUS = float64(load.pollNS) / 1e3 / float64(load.polls)
		perPoll = float64(load.polledEvents) / float64(load.polls)
	}
	put("control.poll_us", pollUS)
	put("control.events_per_poll", perPoll)
	put("control.alarms_dropped", float64(load.dropped))
	put("ids.tpr", load.tpr)
	put("ids.fpr", load.fpr)
	kframes := float64(load.timed) / 1e3
	put("runtime.gc_cycles_per_kframe", float64(load.usage.gcCycles)/kframes)
	put("runtime.gc_pause_us_per_kframe", load.usage.gcPause.Seconds()*1e6/kframes)
	put("runtime.goroutines_leaked", float64(leaked))
	put("bench.latency_samples", float64(load.samples))
	put("bench.send_lag_p99_ms", load.lagP99.Seconds()*1e3)
	return res, env, notes, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}
