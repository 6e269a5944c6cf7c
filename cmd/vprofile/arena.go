package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vprofile/internal/attack"
	"vprofile/internal/baseline"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/stats"
	"vprofile/internal/vehicle"
)

// arenaReportVersion is bumped whenever the report's shape or
// semantics change; the detect gate refuses to diff across versions.
const arenaReportVersion = 1

// arenaRow is one (detector, scenario) cell of the arena matrix.
type arenaRow struct {
	Detector     string  `json:"detector"`
	Scenario     string  `json:"scenario"`
	Frames       int     `json:"frames"`
	AttackFrames int     `json:"attack_frames"`
	TP           int     `json:"tp"`
	FP           int     `json:"fp"`
	FN           int     `json:"fn"`
	TN           int     `json:"tn"`
	TPR          float64 `json:"tpr"`
	FPR          float64 `json:"fpr"`
	ExtractFails int     `json:"extract_fails"`
	// MeanLatencyUS is informational (it moves with the host); the
	// detect gate compares only the detection-quality columns.
	MeanLatencyUS float64 `json:"mean_latency_us"`
}

// arenaReport is the DETECT_arena.json schema the CI gate diffs.
type arenaReport struct {
	Version             int        `json:"version"`
	CorpusVersion       int        `json:"corpus_version"`
	Vehicle             string     `json:"vehicle"`
	Seed                int64      `json:"seed"`
	TrainMessages       int        `json:"train_messages"`
	MessagesPerScenario int        `json:"messages_per_scenario"`
	Detectors           []string   `json:"detectors"`
	Scenarios           []string   `json:"scenarios"`
	Rows                []arenaRow `json:"rows"`
}

// cmdArena sweeps the full attack-scenario registry through the
// composite detector and the related-work baselines, producing the
// per-detector/per-scenario TPR/FPR matrix the CI detection gate
// diffs. Everything derives from -seed (scenario traffic uses each
// scenario's name-hashed effective seed), so two runs of the same
// binary produce identical detection numbers; only the latency
// column moves with the host.
func cmdArena(args []string) error {
	fs := flag.NewFlagSet("arena", flag.ExitOnError)
	vehicleName := fs.String("vehicle", "a", "vehicle to simulate: a, b or sterling")
	trainN := fs.Int("train", 1600, "clean messages used to train every detector")
	n := fs.Int("n", 400, "base messages per scenario (injection adds more)")
	seed := fs.Int64("seed", 1, "base seed; scenarios derive per-name effective seeds from it")
	jsonOut := fs.String("json", "DETECT_arena.json", "write the arena report here ('' disables)")
	only := fs.String("scenarios", "", "comma-separated scenario subset (default: the whole registry)")
	workers := fs.Int("workers", 0, "composite replay worker pool size (0 = GOMAXPROCS)")
	fs.Parse(args)

	v, err := vehicleByName(*vehicleName)
	if err != nil {
		return err
	}
	specs, err := arenaScenarios(*only)
	if err != nil {
		return err
	}

	// One training capture feeds every detector — the comparison is
	// between methods, not between training sets.
	cfg := v.ExtractionConfig()
	var train []baseline.TraceSample
	var samples []core.Sample
	err = v.Stream(vehicle.GenConfig{NumMessages: *trainN, Seed: *seed}, func(m vehicle.Message) error {
		train = append(train, baseline.TraceSample{Trace: m.Trace, SA: m.Frame.SA(), ECU: m.ECUIndex})
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		return err
	}
	model, err := core.Train(samples, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap()})
	if err != nil {
		return err
	}
	classifiers := []baseline.Classifier{
		&baseline.SIMPLE{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth},
		&baseline.Scission{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Seed: *seed},
		&baseline.Viden{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth},
		&baseline.VoltageIDS{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Seed: 11},
		&baseline.Murvay{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Mode: baseline.MurvayMSE},
	}
	saMap := v.SAMap()
	for _, c := range classifiers {
		if err := c.Train(train, saMap); err != nil {
			return fmt.Errorf("arena: training %s: %w", c.Name(), err)
		}
	}

	report := arenaReport{
		Version: arenaReportVersion, CorpusVersion: attack.CorpusVersion,
		Vehicle: v.Name, Seed: *seed, TrainMessages: *trainN, MessagesPerScenario: *n,
		Detectors: []string{"composite"},
	}
	for _, c := range classifiers {
		report.Detectors = append(report.Detectors, c.Name())
	}
	for _, spec := range specs {
		report.Scenarios = append(report.Scenarios, spec.Name)
		msgs, err := attack.GenerateScenario(v, spec, *n, *seed)
		if err != nil {
			return fmt.Errorf("arena: scenario %s: %w", spec.Name, err)
		}
		row, err := arenaComposite(v, model, spec, *seed, msgs, *workers)
		if err != nil {
			return fmt.Errorf("arena: scenario %s: %w", spec.Name, err)
		}
		report.Rows = append(report.Rows, row)
		for _, c := range classifiers {
			report.Rows = append(report.Rows, arenaBaseline(c, spec.Name, msgs))
		}
	}

	fmt.Printf("arena: %d scenarios × %d detectors on %s (corpus v%d, seed %d)\n",
		len(specs), len(report.Detectors), v.Name, attack.CorpusVersion, *seed)
	fmt.Printf("%-12s %-22s %7s %7s %8s %8s %9s %11s\n",
		"scenario", "detector", "frames", "attack", "tpr", "fpr", "extract!", "latency/us")
	for _, r := range report.Rows {
		fmt.Printf("%-12s %-22s %7d %7d %8.4f %8.4f %9d %11.1f\n",
			r.Scenario, r.Detector, r.Frames, r.AttackFrames, r.TPR, r.FPR, r.ExtractFails, r.MeanLatencyUS)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

// arenaScenarios resolves the -scenarios subset (or the whole
// registry), preserving registry order.
func arenaScenarios(only string) ([]attack.ScenarioSpec, error) {
	if strings.TrimSpace(only) == "" {
		return attack.Scenarios(), nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := attack.ScenarioByName(name); err != nil {
			return nil, err
		}
		want[name] = true
	}
	var out []attack.ScenarioSpec
	for _, s := range attack.Scenarios() {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("arena: -scenarios selected nothing")
	}
	return out, nil
}

// finishRow folds the confusion matrix into rates. TPR stays zero on
// scenarios with no attack frames (suspension, clean) — the gate
// knows to skip it there.
func finishRow(row *arenaRow, cm stats.ConfusionMatrix) {
	row.Frames = cm.Total()
	row.AttackFrames = cm.TP + cm.FN
	row.TP, row.FP, row.FN, row.TN = cm.TP, cm.FP, cm.FN, cm.TN
	if row.AttackFrames > 0 {
		row.TPR = float64(cm.TP) / float64(row.AttackFrames)
	}
	if cm.FP+cm.TN > 0 {
		row.FPR = float64(cm.FP) / float64(cm.FP+cm.TN)
	}
}

// arenaComposite stages one scenario's messages as a capture and
// replays it through an engine session — the path the daemon runs —
// scoring each verdict's Alarm() against the labels the capture was
// written with. Quarantine stays off: the arena measures raw per-frame
// detection, not operator-facing coalescing.
func arenaComposite(v *vehicle.Vehicle, model *core.Model, spec attack.ScenarioSpec, seed int64, msgs []attack.Message, workers int) (arenaRow, error) {
	var buf bytes.Buffer
	labels, err := attack.WriteMessages(&buf, v, spec, seed, msgs)
	if err != nil {
		return arenaRow{}, err
	}
	src, err := engine.NewStreamSource(spec.Name, io.NopCloser(&buf))
	if err != nil {
		return arenaRow{}, err
	}
	board := engine.NewScoreboard(labels)
	sum, err := engine.NewSession("", engine.WithName(spec.Name), engine.WithSource(src),
		engine.WithModel(model), engine.WithWorkers(workers)).Run(func(res engine.Result) error {
		board.Observe(res.Index, res.Verdict)
		return nil
	})
	if err != nil {
		return arenaRow{}, err
	}
	row := arenaRow{Detector: "composite", Scenario: spec.Name, ExtractFails: board.ExtractFails()}
	finishRow(&row, board.Matrix())
	if len(msgs) > 0 {
		row.MeanLatencyUS = sum.Stats.WallTime.Seconds() * 1e6 / float64(len(msgs))
	}
	return row, nil
}

// arenaBaseline scores one related-work classifier over a scenario: a
// frame is flagged when Verify rejects it or cannot process it.
func arenaBaseline(c baseline.Classifier, scenario string, msgs []attack.Message) arenaRow {
	row := arenaRow{Detector: c.Name(), Scenario: scenario}
	var cm stats.ConfusionMatrix
	start := time.Now()
	for _, m := range msgs {
		ok, _, err := c.Verify(m.Trace, m.Frame.SA())
		if err != nil {
			row.ExtractFails++
		}
		cm.Add(m.Injected, err != nil || !ok)
	}
	finishRow(&row, cm)
	if len(msgs) > 0 {
		row.MeanLatencyUS = time.Since(start).Seconds() * 1e6 / float64(len(msgs))
	}
	return row
}
