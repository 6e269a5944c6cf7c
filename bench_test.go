// Reproduction benchmarks: one benchmark per table and figure of the
// paper's evaluation, plus the latency micro-benchmarks behind the
// "lightweight, low-latency" contribution claims. Each table bench
// runs the corresponding experiment end-to-end (capture synthesis,
// preprocessing, training, the three test types) and reports the
// scores as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. EXPERIMENTS.md records the
// paper-versus-measured comparison.
package vprofile_test

import (
	"math/rand"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/baseline"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/experiments"
	"vprofile/internal/vehicle"
)

// benchScale keeps the full bench suite laptop-sized; the experiments
// command exposes -scale full for tighter statistics.
var benchScale = experiments.Scale{TrainMessages: 1500, TestMessages: 3000, Seed: 1}

func reportMetric(b *testing.B, res *experiments.MetricResults) {
	b.ReportMetric(res.FalsePositive.Matrix.Accuracy(), "fp-acc")
	b.ReportMetric(res.Hijack.Matrix.FScore(), "hijack-F")
	b.ReportMetric(res.Foreign.Matrix.FScore(), "foreign-F")
}

func benchMetricTable(b *testing.B, mk func() *vehicle.Vehicle, metric core.Metric) {
	b.Helper()
	var last *experiments.MetricResults
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMetric(mk(), metric, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportMetric(b, last)
}

// BenchmarkTable41 reproduces Table 4.1: Vehicle A, Euclidean distance
// (paper: FP accuracy 0.99994, hijack F 0.99989, foreign F 0.00065).
func BenchmarkTable41(b *testing.B) { benchMetricTable(b, vehicle.NewVehicleA, core.Euclidean) }

// BenchmarkTable42 reproduces Table 4.2: Vehicle B, Euclidean distance
// (paper: FP accuracy 0.88606, hijack F 0.80637, foreign F 0.42205).
func BenchmarkTable42(b *testing.B) { benchMetricTable(b, vehicle.NewVehicleB, core.Euclidean) }

// BenchmarkTable43 reproduces Table 4.3: Vehicle A, Mahalanobis
// distance (paper: 1.00000 / 0.99999 / 1.00000).
func BenchmarkTable43(b *testing.B) { benchMetricTable(b, vehicle.NewVehicleA, core.Mahalanobis) }

// BenchmarkTable44 reproduces Table 4.4: Vehicle B, Mahalanobis
// distance (paper: 1.00000 / 0.99999 / 1.00000).
func BenchmarkTable44(b *testing.B) { benchMetricTable(b, vehicle.NewVehicleB, core.Mahalanobis) }

// BenchmarkTable45 reproduces Table 4.5 / Figure 4.5: the distance
// quotient comparison (paper: Euclidean 2.21, Mahalanobis 18.48).
func BenchmarkTable45(b *testing.B) {
	var last *experiments.QuotientResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunQuotient(900, benchScale.Seed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.EuclideanQuotient, "euclid-quot")
	b.ReportMetric(last.MahalanobisQuotient, "mahal-quot")
}

// BenchmarkTable46 reproduces Table 4.6: Vehicle A downsampled to
// {20,10,5,2.5} MS/s at {16,12,10} bits, all scores ≥ 0.999 in the
// paper with slight degradation at the lowest rates.
func BenchmarkTable46(b *testing.B) {
	var last *experiments.SweepResult
	scale := experiments.Scale{TrainMessages: 1200, TestMessages: 2400, Seed: 3}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(vehicle.NewVehicleA(), []int{1, 2, 4, 8}, []int{16, 12, 10}, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if c := last.Cell(2.5, 16); c != nil {
		b.ReportMetric(c.FPAccuracy, "fp-acc@2.5MS/s")
	}
	if c := last.Cell(20, 16); c != nil {
		b.ReportMetric(c.FPAccuracy, "fp-acc@20MS/s")
	}
}

// BenchmarkTable47 reproduces Table 4.7: Vehicle B downsampled to
// {10,5,2.5} MS/s at 12 bits (paper: all scores > 0.999).
func BenchmarkTable47(b *testing.B) {
	var last *experiments.SweepResult
	scale := experiments.Scale{TrainMessages: 1200, TestMessages: 2400, Seed: 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(vehicle.NewVehicleB(), []int{1, 2, 4}, []int{12}, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if c := last.Cell(2.5, 12); c != nil {
		b.ReportMetric(c.FPAccuracy, "fp-acc@2.5MS/s")
		b.ReportMetric(c.ForeignF, "foreign-F@2.5MS/s")
	}
}

// BenchmarkTable48 reproduces Table 4.8 and Figure 4.6: temperature
// variance (paper: 4 false positives out of 5.78M, all at 20–25 °C,
// removed by augmenting training; distance rises sharply for the
// engine-mounted ECUs 0 and 2).
func BenchmarkTable48(b *testing.B) {
	var last *experiments.TemperatureResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTemperature(vehicle.NewVehicleA(), 700, 11)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Matrix.FP), "fps")
	b.ReportMetric(float64(last.AugmentedMatrix.FP), "fps-augmented")
	lastBin := len(last.Delta[0]) - 1
	b.ReportMetric(last.Delta[0][lastBin].MeanPct, "ecu0-delta%@25C")
	b.ReportMetric(last.Delta[4][lastBin].MeanPct, "ecu4-delta%@25C")
}

// BenchmarkFigure46 regenerates the Figure 4.6 series in isolation.
func BenchmarkFigure46(b *testing.B) { BenchmarkTable48(b) }

// BenchmarkTable49 reproduces Table 4.9 and Figure 4.7: high-power
// vehicle functions (paper: perfect detection rate, small distance
// deltas).
func BenchmarkTable49(b *testing.B) {
	var last *experiments.VoltageResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunVoltage(vehicle.NewVehicleA(), 700, 12)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Matrix.FP), "fps")
	b.ReportMetric(last.Delta[0][len(last.Delta[0])-1].MeanPct, "ecu0-delta%")
}

// BenchmarkFigure47 regenerates the Figure 4.7 series in isolation.
func BenchmarkFigure47(b *testing.B) { BenchmarkTable49(b) }

// BenchmarkFigure48 reproduces Figure 4.8: distance drift across five
// accessory-mode trials.
func BenchmarkFigure48(b *testing.B) {
	var last *experiments.DriftResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDrift(vehicle.NewVehicleA(), 5, 600, 13)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	n := len(last.Delta[0])
	b.ReportMetric(last.Delta[0][n-1].MeanPct, "ecu0-final-delta%")
}

// BenchmarkTable51 reproduces Table 5.1: fixed versus per-cluster
// extraction thresholds (paper: small mixed-sign shifts).
func BenchmarkTable51(b *testing.B) {
	var last *experiments.EnhancementResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunClusterThresholds(vehicle.NewVehicleA(), 1800, 26)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Baseline[0].StdDev, "ecu0-sd-static")
	b.ReportMetric(last.Enhanced[0].StdDev, "ecu0-sd-cluster")
}

// BenchmarkTable52 reproduces Table 5.2: one versus three averaged
// edge sets (paper: lower standard deviation for every cluster).
func BenchmarkTable52(b *testing.B) {
	var last *experiments.EnhancementResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMultiEdgeSets(vehicle.NewVehicleA(), 1800, 27)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Baseline[0].StdDev, "ecu0-sd-1set")
	b.ReportMetric(last.Enhanced[0].StdDev, "ecu0-sd-3sets")
}

// BenchmarkFigure25 regenerates Figure 2.5: 200 edge-set traces from
// the two Sterling Acterra ECUs.
func BenchmarkFigure25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CollectEdgeSets(vehicle.NewSterlingActerra(), 200, 21); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure31 regenerates Figure 3.1: rate and resolution
// reduction on one edge set.
func BenchmarkFigure31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunReductionSeries(23); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure42 regenerates Figure 4.2: Vehicle A's five ECU
// voltage profiles.
func BenchmarkFigure42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CollectEdgeSets(vehicle.NewVehicleA(), 500, 22); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure44 regenerates Figure 4.4: per-sample-index standard
// deviation of ECU 0's edge sets.
func BenchmarkFigure44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunIndexDeviation(vehicle.NewSterlingActerra(), 0, 300, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineUpdate measures the Section 5.3 online update under a
// 35 °C warm-up and reports both false positive rates.
func BenchmarkOnlineUpdate(b *testing.B) {
	var last *experiments.OnlineUpdateResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOnlineUpdate(vehicle.NewVehicleA(), 2000, 35, 28)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.StaticFPRate, "static-fp-rate")
	b.ReportMetric(last.UpdatedFPRate, "updated-fp-rate")
}

// BenchmarkBaselines runs the related-work shoot-out of Section 1.2.
func BenchmarkBaselines(b *testing.B) {
	var rows []baseline.ShootoutRow
	for i := 0; i < b.N; i++ {
		v := vehicle.NewVehicleA()
		cfg := v.ExtractionConfig()
		var err error
		rows, err = baseline.Shootout(v, []baseline.Classifier{
			&baseline.VProfile{Extraction: cfg, Metric: core.Mahalanobis, Margin: 8},
			&baseline.SIMPLE{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth},
			&baseline.Scission{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Seed: 9},
			&baseline.Viden{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth},
			&baseline.VoltageIDS{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Seed: 11},
			&baseline.Choi{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth},
			&baseline.Murvay{Threshold: cfg.BitThreshold, BitWidth: cfg.BitWidth, Mode: baseline.MurvayMSE},
		}, 1000, 1000, 77)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Hijack.FScore(), r.Name+"-hijack-F")
	}
}

// --- latency micro-benchmarks (the Section 1.3 lightweight claim) ---

// benchFixture prepares one trained model and a batch of traces.
func benchFixture(b *testing.B) (*vehicle.Vehicle, edgeset.Config, *core.Model, []analog.Trace) {
	b.Helper()
	v := vehicle.NewVehicleB()
	cfg := v.ExtractionConfig()
	var samples []core.Sample
	var traces []analog.Trace
	err := v.Stream(vehicle.GenConfig{NumMessages: 1200, Seed: 5}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
		if len(traces) < 256 {
			traces = append(traces, m.Trace)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.Train(samples, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap(), Margin: 10})
	if err != nil {
		b.Fatal(err)
	}
	return v, cfg, model, traces
}

// BenchmarkExtractLatency measures Algorithm 1 per message: the
// preprocessing share of the detection pipeline.
func BenchmarkExtractLatency(b *testing.B) {
	_, cfg, _, traces := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgeset.Extract(traces[i%len(traces)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// detectSets extracts the fixture's traces into the samples the
// detection benchmarks score.
func detectSets(b *testing.B) (*core.Model, []core.Sample) {
	b.Helper()
	_, cfg, model, traces := benchFixture(b)
	sets := make([]core.Sample, len(traces))
	for i, tr := range traces {
		res, err := edgeset.Extract(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = core.Sample{SA: res.SA, Set: res.Set}
	}
	return model, sets
}

// BenchmarkDetectLatency measures Algorithm 3 per message: the
// single-feature distance detection the paper calls lightweight.
func BenchmarkDetectLatency(b *testing.B) {
	model, sets := detectSets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sets[i%len(sets)]
		model.Detect(s.SA, s.Set)
	}
}

// BenchmarkDetectMasquerade is BenchmarkDetectLatency with every set
// claiming the SA of the next set sent by another ECU: the worst case
// for early abandoning, since the claimed cluster, scored first, is far
// and its distance bounds the other clusters loosely.
func BenchmarkDetectMasquerade(b *testing.B) {
	model, sets := detectSets(b)
	forged := make([]core.Sample, len(sets))
	for i, s := range sets {
		own := model.SALUT[s.SA]
		for j := 1; j < len(sets); j++ {
			if sa := sets[(i+j)%len(sets)].SA; model.SALUT[sa] != own {
				forged[i] = core.Sample{SA: sa, Set: s.Set}
				break
			}
		}
		if forged[i].Set == nil {
			b.Fatal("every set comes from one ECU")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := forged[i%len(forged)]
		model.Detect(s.SA, s.Set)
	}
}

// BenchmarkPipelineLatency measures the full per-message path:
// preprocessing plus detection. At a 250 kb/s bus a frame lasts
// ≥ 500 µs; staying well below that is the real-time requirement.
func BenchmarkPipelineLatency(b *testing.B) {
	_, cfg, model, traces := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := edgeset.Extract(traces[i%len(traces)], cfg)
		if err != nil {
			b.Fatal(err)
		}
		model.Detect(res.SA, res.Set)
	}
}

// BenchmarkTrain measures Algorithm 2 on 1200 preprocessed messages.
func BenchmarkTrain(b *testing.B) {
	v, cfg, _, _ := benchFixture(b)
	var samples []core.Sample
	err := v.Stream(vehicle.GenConfig{NumMessages: 1200, Seed: 6}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(samples, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateLatency measures Algorithm 4 per edge set (Eq. 5.1 on
// the covariance and the rank-1 update of its Cholesky factor).
func BenchmarkUpdateLatency(b *testing.B) {
	_, cfg, model, traces := benchFixture(b)
	var samples []core.Sample
	for _, tr := range traces {
		res, err := edgeset.Extract(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Update(samples[i%len(samples) : i%len(samples)+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize measures the analog substrate itself: one frame
// rendered to a 10 MS/s trace.
func BenchmarkSynthesize(b *testing.B) {
	v := vehicle.NewVehicleB()
	tx := v.ECUs[0].Transceiver
	frame, err := canbus.NewJ1939Frame(canbus.J1939ID{Priority: 3, PGN: canbus.PGNElectronicEngine1, SA: 0}, make([]byte, 8))
	if err != nil {
		b.Fatal(err)
	}
	cfg := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 3, MaxSamples: v.DefaultTraceSamples()}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analog.SynthesizeFrame(tx, frame, cfg, tx.NominalEnvironment(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEdges runs the edge-selection ablation (the
// DESIGN.md design-choice study: both edges versus rising/falling
// only).
func BenchmarkAblationEdges(b *testing.B) {
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunEdgeAblation(vehicle.NewVehicleA(), experiments.Scale{TrainMessages: 1200, TestMessages: 2000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Err == "" {
			b.ReportMetric(p.HijackF, p.Label+"-hijack-F")
		}
	}
}

// BenchmarkAblationMargin traces the Section 3.2.3 margin trade-off.
func BenchmarkAblationMargin(b *testing.B) {
	var pts []experiments.MarginCurvePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunMarginCurve(vehicle.NewVehicleA(), []float64{0, 15, 40, 160}, experiments.Scale{TrainMessages: 1200, TestMessages: 2000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].ForeignRecall, "recall@margin0")
	b.ReportMetric(pts[len(pts)-1].ForeignRecall, "recall@margin160")
}
