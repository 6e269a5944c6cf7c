package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"vprofile/internal/attack"
	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// inputs is everything one seed generates for one workload: the model
// file the daemon loads, the corpus capture every bus is fed, and the
// per-record facts the load generators and checks need.
type inputs struct {
	modelPath   string
	model       *core.Model
	capturePath string
	capture     []byte
	header      trace.Header
	headerLen   int       // bytes before the first record
	recEnd      []int     // byte offset just past record i
	times       []float64 // capture timestamp of record i
	injected    []bool    // ground truth: record i was injected by the attacker
	// byTime maps a capture timestamp (its float64 bits) to its record;
	// attack corpora have strictly increasing timestamps, so the map is
	// the (bus, timestamp) join key for events.
	byTime map[uint64]int
}

// Training sizes for the per-seed model: a clean capture to fit the
// clusters and a held-out one to choose the margin, as the arena and
// replaybench fixtures do.
const (
	trainMessages  = 1500
	marginMessages = 800
)

// loadInputs returns the seed's model and the scenario capture of n
// base messages (an attack scenario injects more records on top),
// generating them on first use and reusing the files under
// dir afterwards. Generation is deterministic in (seed, scenario, n),
// so a cached file and a fresh one are byte-identical.
func loadInputs(dir string, seed int64, scenario string, n int) (*inputs, error) {
	dir = filepath.Join(dir, fmt.Sprintf("seed-%d", seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{modelPath: filepath.Join(dir, "model.vpm")}
	if err := cached(in.modelPath, func(w io.Writer) error { return trainModel(w, seed) }); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	m, err := engine.LoadModelFile(in.modelPath)
	if err != nil {
		return nil, err
	}
	in.model = m

	spec, err := attack.ScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", scenario, n))
	var labels *attack.Labels
	err = cached(base+".vptr", func(w io.Writer) error {
		l, err := attack.WriteCorpus(w, vehicle.NewVehicleB(), spec, n, seed)
		if err != nil {
			return err
		}
		labels = l
		return attack.WriteLabels(base+".labels.json", l)
	})
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", scenario, err)
	}
	if labels == nil {
		if labels, err = attack.LoadLabels(base + ".labels.json"); err != nil {
			return nil, err
		}
	}
	if in.capture, err = mapFile(base + ".vptr"); err != nil {
		return nil, err
	}
	if labels.Version != attack.CorpusVersion {
		return nil, fmt.Errorf("%s: labels describe corpus v%d, want v%d", base, labels.Version, attack.CorpusVersion)
	}
	in.capturePath = base + ".vptr"
	if err := in.scan(); err != nil {
		return nil, err
	}
	in.injected = labels.InjectedMask()
	if len(in.injected) != in.records() {
		return nil, fmt.Errorf("%s: capture has %d records, labels %d", base, in.records(), len(in.injected))
	}
	return in, nil
}

// mapFile maps a file read-only. Captures are mapped rather than read
// so that they stay out of the Go heap: a daemon's heap holds no
// capture, and a heap inflated by one would make the collector run far
// less often than it does in production. The mapping lives until the
// process exits.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		return nil, fmt.Errorf("%s is empty", path)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
}

// cached creates path by calling gen unless it already exists. The
// file is written under a temporary name and renamed into place, so an
// interrupted generation never leaves a truncated input behind.
func cached(path string, gen func(io.Writer) error) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := gen(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// trainModel fits a Mahalanobis model on clean Vehicle B traffic and
// commissions its margin on a held-out capture with 1.5x headroom.
func trainModel(w io.Writer, seed int64) error {
	v := vehicle.NewVehicleB()
	cfg := v.ExtractionConfig()
	train, err := experiments.CollectSamples(v, trainMessages, 7+seed*104729, nil, cfg)
	if err != nil {
		return err
	}
	m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap()})
	if err != nil {
		return err
	}
	val, err := experiments.CollectSamples(v, marginMessages, 8+seed*104729, nil, cfg)
	if err != nil {
		return err
	}
	margin, _ := experiments.OptimizeMargin(experiments.FalsePositiveRecords(m, val), experiments.MaxAccuracy)
	// Three times the validation optimum: with less headroom a few
	// seeds' clean captures raise false voltage alarms, and the replay
	// workload is meant to have none.
	m.Margin = margin * 3
	return m.Save(w)
}

// scan reads the capture once to find each record's end offset and
// timestamp. A record's encoded size is its fixed fields (ECU 4, time
// 8, id 4, data length 2, sample count 4) plus its payloads; the
// header is whatever precedes the first record.
func (in *inputs) scan() error {
	rd, err := trace.NewReader(bytes.NewReader(in.capture))
	if err != nil {
		return err
	}
	in.header = rd.Header()
	var sizes []int
	var raw trace.RawRecord
	for {
		err := rd.NextRawInto(&raw)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		sizes = append(sizes, 22+len(raw.Data)+len(raw.Codes))
		in.times = append(in.times, raw.TimeSec)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	in.headerLen = len(in.capture) - total
	in.recEnd = make([]int, len(sizes))
	off := in.headerLen
	for i, s := range sizes {
		off += s
		in.recEnd[i] = off
	}
	in.byTime = make(map[uint64]int, len(in.times))
	for i, t := range in.times {
		in.byTime[math.Float64bits(t)] = i
	}
	if len(in.byTime) != len(in.times) {
		return errors.New("capture timestamps are not unique")
	}
	return nil
}

// truncate keeps the first n records of the capture.
func (in *inputs) truncate(n int) error {
	if n > in.records() {
		return fmt.Errorf("capture has %d records, want %d", in.records(), n)
	}
	for _, t := range in.times[n:] {
		delete(in.byTime, math.Float64bits(t))
	}
	in.capture = in.capture[:in.recEnd[n-1]]
	in.recEnd, in.times = in.recEnd[:n], in.times[:n]
	if in.injected != nil {
		in.injected = in.injected[:n]
	}
	return nil
}

// due is when record i is due on bus b of nb under the open-loop
// schedule starting at start (Unix ns): the generator's timestamps
// compressed to rate frames/s, each bus shifted by an even share of
// one frame interval.
func (in *inputs) due(start int64, b, nb, i int, rate float64) int64 {
	n := in.records()
	scale := float64(n-1) / rate / (in.times[n-1] - in.times[0])
	return start + int64(((in.times[i]-in.times[0])*scale+float64(b)/rate/float64(nb))*1e9)
}

// frame returns record i's encoded bytes.
func (in *inputs) frame(i int) []byte {
	lo := in.headerLen
	if i > 0 {
		lo = in.recEnd[i-1]
	}
	return in.capture[lo:in.recEnd[i]]
}

// records is the capture's record count.
func (in *inputs) records() int { return len(in.times) }

// reference is the expected outcome of one bus fed the whole capture:
// the tally a sequential replay produces, and which records raise a
// voltage-family alarm event (a voltage anomaly or a preprocess
// failure that quarantine did not coalesce).
type reference struct {
	tally  *engine.Tally
	alarms []bool
}

// replayReference replays the capture through pipeline.Sequential and
// engine.Tally, configured as the daemon configures a bus with the
// default spec.
func replayReference(in *inputs) (*reference, error) {
	rd, err := trace.NewReader(bytes.NewReader(in.capture))
	if err != nil {
		return nil, err
	}
	store, err := engine.NewModelStore(in.model)
	if err != nil {
		return nil, err
	}
	mon, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header()), Models: store})
	if err != nil {
		return nil, err
	}
	ref := &reference{tally: engine.NewTally(), alarms: make([]bool, in.records())}
	_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		ref.tally.Observe(r)
		v := r.Verdict
		ref.alarms[r.Index] = (v.ExtractErr != nil || v.Voltage.Anomaly) && !v.Suppressed
		return nil
	})
	if err != nil {
		return nil, err
	}
	if got := ref.tally.Frames(); got != in.records() {
		return nil, fmt.Errorf("reference replay tallied %d of %d records", got, in.records())
	}
	return ref, nil
}

// rates scores per-record voltage alarms against the corpus labels.
// TPR is over injected records, FPR over genuine ones; each is zero
// when its base is empty.
func (in *inputs) rates(alarms []bool) (tpr, fpr float64) {
	var tp, pos, fp, neg int
	for i, inj := range in.injected {
		if inj {
			pos++
			if alarms[i] {
				tp++
			}
		} else {
			neg++
			if alarms[i] {
				fp++
			}
		}
	}
	if pos > 0 {
		tpr = float64(tp) / float64(pos)
	}
	if neg > 0 {
		fpr = float64(fp) / float64(neg)
	}
	return tpr, fpr
}
