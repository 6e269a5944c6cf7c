package experiments

import (
	"fmt"
	"math"

	"vprofile/internal/analog"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/linalg"
	"vprofile/internal/stats"
	"vprofile/internal/vehicle"
)

// ECUStats is one row of Tables 5.1/5.2: an ECU's intra-cluster
// statistics under one preprocessing variant.
type ECUStats struct {
	// StdDev is the per-sample standard deviation averaged over the
	// edge-set dimensions (the paper's ~170-code figures).
	StdDev float64
	// MaxDist is the maximum Mahalanobis distance from a trace to its
	// ECU's mean (the paper's ~10–21 figures).
	MaxDist float64
}

// EnhancementResult compares a baseline preprocessing variant against
// an enhanced one, per ECU.
type EnhancementResult struct {
	Baseline []ECUStats
	Enhanced []ECUStats
}

// RunClusterThresholds reproduces Table 5.1: train-time statistics
// with the fixed extraction threshold versus a per-cluster threshold
// computed as the midpoint of each ECU's trace extremes over the first
// half of a message (Section 5.1).
func RunClusterThresholds(v *vehicle.Vehicle, n int, seed int64) (*EnhancementResult, error) {
	fixed := v.ExtractionConfig()

	// Pass 1: derive each ECU's threshold from its first message.
	thresholds := make([]float64, len(v.ECUs))
	found := 0
	err := v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed}, func(m vehicle.Message) error {
		if thresholds[m.ECUIndex] == 0 {
			thresholds[m.ECUIndex] = edgeset.ClusterThreshold(m.Trace)
			found++
			if found == len(v.ECUs) {
				return errStopStream
			}
		}
		return nil
	})
	if err != nil && err != errStopStream {
		return nil, err
	}
	if found < len(v.ECUs) {
		return nil, fmt.Errorf("experiments: only %d of %d ECUs seen while deriving thresholds", found, len(v.ECUs))
	}

	// Pass 2 (same seed → same traffic): extract each message twice.
	baseSets := make([][]linalg.Vector, len(v.ECUs))
	enhSets := make([][]linalg.Vector, len(v.ECUs))
	err = v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed}, func(m vehicle.Message) error {
		rb, err := edgeset.Extract(m.Trace, fixed)
		if err != nil {
			return err
		}
		baseSets[m.ECUIndex] = append(baseSets[m.ECUIndex], rb.Set)
		clustCfg := fixed
		clustCfg.BitThreshold = thresholds[m.ECUIndex]
		re, err := edgeset.Extract(m.Trace, clustCfg)
		if err != nil {
			return err
		}
		enhSets[m.ECUIndex] = append(enhSets[m.ECUIndex], re.Set)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &EnhancementResult{}
	res.Baseline, err = perECUStats(baseSets)
	if err != nil {
		return nil, err
	}
	res.Enhanced, err = perECUStats(enhSets)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// errStopStream terminates a Stream early without reporting failure.
var errStopStream = fmt.Errorf("experiments: stop stream")

// RunMultiEdgeSets reproduces Table 5.2: statistics with one edge set
// per message versus the mean of three edge sets spaced 250 samples
// apart at the reference rate (Section 5.2).
func RunMultiEdgeSets(v *vehicle.Vehicle, n int, seed int64) (*EnhancementResult, error) {
	oneCfg := v.ExtractionConfig()
	threeCfg := oneCfg
	threeCfg.NumEdgeSets = 3
	threeCfg.EdgeSetGap = 250 * oneCfg.BitWidth / 40 // the paper's spacing, rate-scaled

	oneSets := make([][]linalg.Vector, len(v.ECUs))
	threeSets := make([][]linalg.Vector, len(v.ECUs))
	err := v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed}, func(m vehicle.Message) error {
		r1, err := edgeset.Extract(m.Trace, oneCfg)
		if err != nil {
			return err
		}
		oneSets[m.ECUIndex] = append(oneSets[m.ECUIndex], r1.Set)
		r3, err := edgeset.Extract(m.Trace, threeCfg)
		if err != nil {
			return err
		}
		threeSets[m.ECUIndex] = append(threeSets[m.ECUIndex], r3.Set)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &EnhancementResult{}
	res.Baseline, err = perECUStats(oneSets)
	if err != nil {
		return nil, err
	}
	res.Enhanced, err = perECUStats(threeSets)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// perECUStats derives the Table 5.1/5.2 row for each ECU's edge sets.
func perECUStats(byECU [][]linalg.Vector) ([]ECUStats, error) {
	out := make([]ECUStats, len(byECU))
	for ecu, sets := range byECU {
		if len(sets) < 2 {
			return nil, fmt.Errorf("experiments: ECU %d has only %d edge sets", ecu, len(sets))
		}
		mean := linalg.Mean(sets)
		dim := len(mean)
		// Average per-dimension standard deviation.
		col := make([]float64, len(sets))
		var sdSum float64
		for i := 0; i < dim; i++ {
			for j, s := range sets {
				col[j] = s[i]
			}
			sdSum += stats.StdDev(col)
		}
		f, err := linalg.PackCholesky(linalg.Covariance(sets))
		if err != nil {
			return nil, fmt.Errorf("experiments: ECU %d covariance: %w", ecu, err)
		}
		var maxSq float64
		for _, s := range sets {
			if q := linalg.MahalanobisSqChol(s, mean, f); q > maxSq {
				maxSq = q
			}
		}
		maxDist := math.Sqrt(maxSq)
		out[ecu] = ECUStats{StdDev: sdSum / float64(dim), MaxDist: maxDist}
	}
	return out, nil
}

// OnlineUpdateResult quantifies the Section 5.3 enhancement: false
// positive rates under environmental drift with a static model versus
// one updated online with accepted messages (Algorithm 4).
type OnlineUpdateResult struct {
	StaticFPRate  float64
	UpdatedFPRate float64
	// RetrainRecommended reports whether any cluster crossed the
	// model's update bound during the run.
	RetrainRecommended bool
}

// RunOnlineUpdate trains at nominal temperature, then replays traffic
// while the vehicle warms by warmBy °C. The static model's false
// positive rate climbs as the waveforms drift; the updated model folds
// every accepted message back in (batched) and tracks the drift.
func RunOnlineUpdate(v *vehicle.Vehicle, n int, warmBy float64, seed int64) (*OnlineUpdateResult, error) {
	cfg := v.ExtractionConfig()
	nominal := v.ECUs[0].Transceiver.NominalEnvironment()

	train, err := CollectSamples(v, 4*n, seed, nil, cfg)
	if err != nil {
		return nil, err
	}
	val, err := CollectSamples(v, n, seed+50, nil, cfg)
	if err != nil {
		return nil, err
	}
	mkModel := func() (*core.Model, error) {
		m, err := core.Train(CoreSamples(train), core.TrainConfig{
			Metric: core.Mahalanobis, SAMap: v.SAMap(), UpdateBound: 100 * len(train),
		})
		if err != nil {
			return nil, err
		}
		margin, _ := OptimizeMargin(FalsePositiveRecords(m, val), MaxAccuracy)
		m.Margin = margin * 1.25 // commissioning headroom
		return m, nil
	}
	static, err := mkModel()
	if err != nil {
		return nil, err
	}
	updated, err := mkModel()
	if err != nil {
		return nil, err
	}

	dur := captureDuration(v, n)
	env := func(t float64, ecu int) analog.Environment {
		frac := t / dur
		if frac > 1 {
			frac = 1
		}
		e := nominal
		e.TemperatureC += warmBy * frac
		return e
	}

	res := &OnlineUpdateResult{}
	staticFPs, updatedFPs, total := 0, 0, 0
	var batch []core.Sample
	err = v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed + 99, Env: env}, func(m vehicle.Message) error {
		r, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		total++
		if static.Detect(r.SA, r.Set).Anomaly {
			staticFPs++
		}
		if updated.Detect(r.SA, r.Set).Anomaly {
			updatedFPs++
		} else {
			// Only accepted messages feed the online update, batched
			// to amortise the covariance maintenance.
			batch = append(batch, core.Sample{SA: r.SA, Set: r.Set})
			if len(batch) >= 64 {
				ur, err := updated.Update(batch)
				if err != nil {
					return err
				}
				if len(ur.RetrainRecommended) > 0 {
					res.RetrainRecommended = true
				}
				batch = batch[:0]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.StaticFPRate = float64(staticFPs) / float64(total)
	res.UpdatedFPRate = float64(updatedFPs) / float64(total)
	return res, nil
}
