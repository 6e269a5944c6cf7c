// Command replaybench seeds the repository's performance trajectory:
// an ablation table over the standard 10k-record Vehicle B capture
// (experiments.ReplayFixture), written to a JSON file that CI and
// future PRs diff (cmd/benchgate enforces the diff).
//
// Usage:
//
//	replaybench -out BENCH_pipeline.json [-records 10000] [-repeat 15]
//
// Every row but the sequential speedup reference replays through
// engine.Session or engine.Fleet, the path deployments run. A layered
// row is its base row plus one optional layer — the engine options a
// deployment sets for it, a unix-socket record source, or a shared
// fleet host — so the report has one overhead rule: a row's time
// against its base row's. The per-layer medians land in one `layers`
// map; a new layer is one more row.
//
// Each row runs repeat times and reports its best run: host
// interference only ever slows a run, so with enough repeats every
// row's minimum converges to its true cost and the overhead ratios
// measure the layer rather than noise.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// Run is one table row's result.
type Run struct {
	Name    string `json:"name"`
	Base    string `json:"base,omitempty"`  // row the overhead is measured against
	Layer   string `json:"layer,omitempty"` // optional layer the row adds to its base
	Workers int    `json:"workers"`         // per bus; 0 = sequential reference path
	Buses   int    `json:"buses"`
	// Frames is the number of records the row's buses replayed in one
	// run; it equals records × buses or the benchmark fails.
	Frames       int64   `json:"frames"`
	Seconds      float64 `json:"seconds"`
	FramesPerSec float64 `json:"frames_per_sec"`
	// AllocsPerFrame is the heap-allocation count per replayed frame
	// (runtime Mallocs delta over the run, minimum across repeats —
	// concurrent GC noise only ever inflates it).
	AllocsPerFrame      float64 `json:"allocs_per_frame"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// OverheadPct is the row's best-of-repeat time against its base
	// row's, in percent (layered rows only).
	OverheadPct *float64 `json:"overhead_pct,omitempty"`
}

// Report is the BENCH_pipeline.json schema.
type Report struct {
	Records int `json:"records"`
	Repeat  int `json:"repeat"`
	// Batch is the pipeline batch bound the runs used: always 0, the
	// pipeline default. benchgate compares it between reports.
	Batch     int    `json:"batch"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is the setting the runs executed under (the
	// -gomaxprocs flag after defaulting); NumCPU is the machine's
	// actual core count. On a single-core host GOMAXPROCS may exceed
	// NumCPU — the parallel runs then interleave by timeslicing, and
	// consumers (cmd/benchgate) use NumCPU to decide whether a
	// parallel-speedup expectation is physically meaningful.
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GeneratedAt string `json:"generated_at"`
	Runs        []Run  `json:"runs"`
	// Layers maps each optional layer to the median overhead of its
	// rows. Median rather than worst keeps one noisy row on a loaded
	// host from misstating the cost.
	Layers map[string]float64 `json:"layers"`
}

// row is one configuration of the ablation table.
type row struct {
	name    string
	base    string // row the overhead is measured against ("" = none)
	layer   string // optional layer the row adds to base
	workers int    // worker pool per bus; 0 = pipeline.Sequential
	buses   int    // buses replayed concurrently
	source  source // where each bus's records come from (nil = memory)
	host    host   // how the buses run (nil = one lone session each)
	opts    []engine.Option
}

// source opens one bus's record stream over the capture bytes.
type source func(capture []byte) (*engine.StreamSource, error)

// host replays one stream per bus at workers per bus with opts.
type host func(srcs []*engine.StreamSource, workers int, opts []engine.Option) ([]engine.Summary, error)

// plus derives the row that adds layer to r: the same shape with opts
// appended.
func (r row) plus(layer string, opts ...engine.Option) row {
	l := r
	l.name, l.base, l.layer = r.name+"+"+layer, r.name, layer
	l.opts = append(r.opts[:len(r.opts):len(r.opts)], opts...)
	return l
}

// table is the ablation table. Each layered row sits directly after
// its base row, so the pair executes back-to-back under (nearly) the
// same host conditions.
func table(flightDir string) []row {
	rows := []row{{name: "sequential", buses: 1}}
	for _, w := range []int{1, 2, 4, 8} {
		p := row{name: fmt.Sprintf("parallel%d", w), workers: w, buses: 1}
		rows = append(rows, p, p.plus("metrics", engine.WithMetricsAddr("127.0.0.1:0")))
		if w == 2 {
			continue
		}
		socket := p.plus("socket")
		socket.source = socketSource
		rows = append(rows,
			p.plus("flight", engine.WithFlightRecorder(flightDir, 8)),
			// The degraded-mode layer at zero fault intensity: the reader
			// scans for corruption it never finds, the quarantine machine
			// scores frames that are never suspicious.
			p.plus("faults", engine.WithRecovery(true), engine.WithQuarantine(true)),
			p.plus("drift", engine.WithDrift(true)),
			socket)
	}
	// Fleet rows: two lone sessions with private pools against one
	// fleet sharing a pool of the same total width, so the pair prices
	// the sharing mechanism, not worker counts.
	for _, w := range []int{1, 4} {
		indep := row{name: fmt.Sprintf("indep2x%d", w), workers: w, buses: 2}
		fleet := row{name: fmt.Sprintf("fleet2x%d", w), base: indep.name, layer: "fleet", workers: w, buses: 2, host: sharedFleet}
		rows = append(rows, indep, fleet, fleet.plus("incidents", engine.WithIncidents(true)))
	}
	return rows
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output JSON file")
	records := flag.Int("records", 10000, "capture size in records")
	repeat := flag.Int("repeat", 15, "runs per configuration (best is reported)")
	procs := flag.Int("gomaxprocs", 0, "GOMAXPROCS for the whole benchmark, 0 = NumCPU (set >= 2 explicitly on a single-core host to benchmark by timeslicing)")
	flag.Parse()
	if err := run(*out, *records, *repeat, *procs); err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(1)
	}
}

func run(out string, records, repeat, procs int) error {
	report, err := measure(records, repeat, procs)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replaybench: median layer overheads %v → %s\n", report.Layers, out)
	return nil
}

// measure runs the table and builds the report.
func measure(records, repeat, procs int) (Report, error) {
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	// Refuse to publish a report whose parallel configurations ran at
	// GOMAXPROCS=1: every speedup would be ≈1.0 by construction and
	// the numbers would look like a regression (or mask a real one).
	// On a single-core host, pass -gomaxprocs >= 2 explicitly to
	// measure the timesliced pipeline instead.
	if procs < 2 {
		return Report{}, fmt.Errorf("parallel configurations would run at GOMAXPROCS=%d and cannot measure parallelism; set -gomaxprocs >= 2 (this host has %d CPU(s))", procs, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	fmt.Fprintf(os.Stderr, "replaybench: generating %d-record fixture (GOMAXPROCS=%d, NumCPU=%d)...\n", records, procs, runtime.NumCPU())
	capture, model, _, err := experiments.ReplayFixture(records)
	if err != nil {
		return Report{}, err
	}
	tmp, err := os.MkdirTemp("", "replaybench")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(tmp)
	rows := table(filepath.Join(tmp, "flight"))
	common := []engine.Option{engine.WithModel(model)}

	// Interleave the runs round-robin across every row rather than
	// finishing one before starting the next: host noise (a shared or
	// thermally-throttled box) then lands on all rows alike, so the
	// best-of comparison between a row and its base stays fair. Each
	// pass also starts at a different offset, so no row is pinned to
	// the start or end of the process, where turbo decay or heap
	// growth would bias it the same way every pass.
	best := make(map[string]time.Duration, len(rows))
	bestAllocs := make(map[string]uint64, len(rows))
	frames := make(map[string]int64, len(rows))
	for i := 0; i < repeat; i++ {
		off := i * len(rows) / repeat
		for j := range rows {
			r := rows[(j+off)%len(rows)]
			d, allocs, n, err := replay(r, capture, model, common)
			if err != nil {
				return Report{}, fmt.Errorf("%s: %w", r.name, err)
			}
			if want := int64(records * r.buses); n != want {
				return Report{}, fmt.Errorf("%s: replayed %d of %d records", r.name, n, want)
			}
			frames[r.name] = n
			if cur, ok := best[r.name]; !ok || d < cur {
				best[r.name] = d
			}
			// Minimum across repeats, like the times: concurrent GC and
			// background goroutines only ever add allocations.
			if cur, ok := bestAllocs[r.name]; !ok || allocs < cur {
				bestAllocs[r.name] = allocs
			}
		}
	}

	report := Report{
		Records:     records,
		Repeat:      repeat,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Layers:      map[string]float64{},
	}
	// A layered row's overhead is the ratio of best-of-repeat times.
	// Host interference is one-sided — a neighbouring process only ever
	// slows a run — so with enough repeats each minimum converges to
	// the row's true cost and the ratio measures the layer, not noise.
	seqFPS := float64(records) / best["sequential"].Seconds()
	perLayer := map[string][]float64{}
	for _, r := range rows {
		sec := best[r.name].Seconds()
		n := frames[r.name]
		run := Run{
			Name:                r.name,
			Base:                r.base,
			Layer:               r.layer,
			Workers:             r.workers,
			Buses:               r.buses,
			Frames:              n,
			Seconds:             sec,
			FramesPerSec:        float64(n) / sec,
			AllocsPerFrame:      float64(bestAllocs[r.name]) / float64(n),
			SpeedupVsSequential: float64(n) / sec / seqFPS,
		}
		if r.base != "" {
			base := best[r.base].Seconds()
			pct := 100 * (sec - base) / base
			run.OverheadPct = &pct
			perLayer[r.layer] = append(perLayer[r.layer], pct)
		}
		fmt.Fprintf(os.Stderr, "replaybench: %-20s %8.3fs  %9.0f frames/s  %6.2f allocs/frame\n",
			r.name, sec, run.FramesPerSec, run.AllocsPerFrame)
		report.Runs = append(report.Runs, run)
	}
	for layer, pcts := range perLayer {
		sort.Float64s(pcts)
		report.Layers[layer] = pcts[len(pcts)/2]
	}
	return report, nil
}

// mallocsNow reads the runtime's cumulative heap-allocation counter.
// The delta across a replay, divided by the frames replayed, is the
// allocs-per-frame figure the report publishes.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay runs row r once and returns its wall time, its heap
// allocations and the frames its buses replayed. Opening the record
// sources is outside the measurement; hosting and replaying are in it.
func replay(r row, capture []byte, model *core.Model, common []engine.Option) (time.Duration, uint64, int64, error) {
	if r.workers == 0 {
		return sequential(capture, model)
	}
	open, hostBuses := r.source, r.host
	if open == nil {
		open = memorySource
	}
	if hostBuses == nil {
		hostBuses = loneSessions
	}
	srcs := make([]*engine.StreamSource, r.buses)
	for i := range srcs {
		src, err := open(capture)
		if err != nil {
			closeAll(srcs[:i])
			return 0, 0, 0, err
		}
		srcs[i] = src
	}
	opts := append(common[:len(common):len(common)], r.opts...)
	m0 := mallocsNow()
	start := time.Now()
	sums, err := hostBuses(srcs, r.workers, opts)
	elapsed := time.Since(start)
	allocs := mallocsNow() - m0
	var n int64
	for _, s := range sums {
		n += s.Stats.RecordsOut
	}
	return elapsed, allocs, n, err
}

// sequential is the speedup reference: the capture scored in a plain
// read loop with no pipeline and no engine.
func sequential(capture []byte, model *core.Model) (time.Duration, uint64, int64, error) {
	m0 := mallocsNow()
	start := time.Now()
	rd, err := trace.NewReader(bytes.NewReader(capture))
	if err != nil {
		return 0, 0, 0, err
	}
	mon, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header())})
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := pipeline.Sequential(rd, mon, nil)
	return time.Since(start), mallocsNow() - m0, st.RecordsOut, err
}

// memorySource streams the capture from memory.
func memorySource(capture []byte) (*engine.StreamSource, error) {
	return engine.NewStreamSource("memory", io.NopCloser(bytes.NewReader(capture)))
}

// socketSource streams the capture through a loopback unix socket —
// the daemon's live-ingestion shape: a writer goroutine feeds the
// connection while the session reads it. Everything downstream of the
// source is the same as the in-memory row it is compared against.
func socketSource(capture []byte) (*engine.StreamSource, error) {
	dir, err := os.MkdirTemp("", "replaybench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("unix", filepath.Join(dir, "ingest.sock"))
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	peer, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The writer ends once the capture is written or the session
	// closes its end of the connection.
	go func() {
		_, _ = io.Copy(peer, bytes.NewReader(capture))
		peer.Close()
	}()
	return engine.NewStreamSource("socket", conn)
}

func closeAll(srcs []*engine.StreamSource) {
	for _, s := range srcs {
		_ = s.Close()
	}
}

func busName(i int) string { return fmt.Sprintf("bus%d", i) }

// loneSessions runs each stream as its own engine.Session — its own
// one-member fleet with a private pool — concurrently.
func loneSessions(srcs []*engine.StreamSource, workers int, opts []engine.Option) ([]engine.Summary, error) {
	sessions := make([]*engine.Session, len(srcs))
	for i, src := range srcs {
		sessions[i] = engine.NewSession("", append([]engine.Option{
			engine.WithName(busName(i)), engine.WithWorkers(workers), engine.WithSource(src),
		}, opts...)...)
	}
	return runAll(sessions)
}

// sharedFleet attaches every stream to one engine.Fleet whose shared
// pool has the same total width as the lone sessions' private pools.
func sharedFleet(srcs []*engine.StreamSource, workers int, opts []engine.Option) ([]engine.Summary, error) {
	f, err := engine.NewFleet(nil, append(opts, engine.WithWorkers(workers*len(srcs)))...)
	if err != nil {
		closeAll(srcs)
		return nil, err
	}
	sessions := make([]*engine.Session, len(srcs))
	for i, src := range srcs {
		if sessions[i], err = f.Attach(busName(i), src); err != nil {
			closeAll(srcs[i:])
			return nil, errors.Join(err, f.Close())
		}
	}
	sums, err := runAll(sessions)
	return sums, errors.Join(err, f.Close())
}

// runAll runs the sessions concurrently and waits for all of them.
func runAll(sessions []*engine.Session) ([]engine.Summary, error) {
	sums := make([]engine.Summary, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = s.Run(nil)
		}()
	}
	wg.Wait()
	return sums, errors.Join(errs...)
}
