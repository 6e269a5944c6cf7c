package experiments

import (
	"fmt"

	"vprofile/internal/core"
	"vprofile/internal/dsp"
	"vprofile/internal/linalg"
	"vprofile/internal/stats"
	"vprofile/internal/vehicle"
)

// EdgeSetBundle is the data behind Figure 2.5 / Figure 4.2: a set of
// raw edge-set traces grouped by ground-truth ECU.
type EdgeSetBundle struct {
	Vehicle string
	// Sets[ecu] holds the edge-set vectors of that ECU's messages.
	Sets [][]linalg.Vector
	// Means[ecu] is the per-ECU mean waveform (Figure 4.2's profile).
	Means []linalg.Vector
}

// CollectEdgeSets gathers n messages' edge sets grouped by ECU — the
// raw material of Figures 2.5 and 4.2.
func CollectEdgeSets(v *vehicle.Vehicle, n int, seed int64) (*EdgeSetBundle, error) {
	cfg := v.ExtractionConfig()
	samples, err := CollectSamples(v, n, seed, nil, cfg)
	if err != nil {
		return nil, err
	}
	b := &EdgeSetBundle{Vehicle: v.Name, Sets: make([][]linalg.Vector, len(v.ECUs))}
	for _, s := range samples {
		if s.ECU >= 0 {
			b.Sets[s.ECU] = append(b.Sets[s.ECU], s.Set)
		}
	}
	b.Means = make([]linalg.Vector, len(v.ECUs))
	for ecu, sets := range b.Sets {
		if len(sets) > 0 {
			b.Means[ecu] = linalg.Mean(sets)
		}
	}
	return b, nil
}

// ReductionSeries is Figure 3.1: one edge set rendered at reduced
// sampling rates (laterally rescaled for comparison) and reduced
// resolutions.
type ReductionSeries struct {
	Original []float64
	// ByRate[i] is the edge set decimated by RateFactors[i] and
	// rescaled back to the original length.
	RateFactors []int
	ByRate      [][]float64
	// ByBits[i] is the edge set requantised to Bits[i] of resolution.
	Bits   []int
	ByBits [][]float64
}

// RunReductionSeries reproduces Figure 3.1 on one edge set from the
// Sterling Acterra stand-in.
func RunReductionSeries(seed int64) (*ReductionSeries, error) {
	v := vehicle.NewSterlingActerra()
	cfg := v.ExtractionConfig()
	samples, err := CollectSamples(v, 1, seed, nil, cfg)
	if err != nil {
		return nil, err
	}
	set := []float64(samples[0].Set)
	out := &ReductionSeries{
		Original:    set,
		RateFactors: []int{2, 4, 8},
		Bits:        []int{12, 10, 8, 6},
	}
	for _, f := range out.RateFactors {
		down, err := dsp.Downsample(set, f)
		if err != nil {
			return nil, err
		}
		up, err := dsp.ResampleTo(down, len(set))
		if err != nil {
			return nil, err
		}
		out.ByRate = append(out.ByRate, up)
	}
	for _, b := range out.Bits {
		red, err := dsp.ReduceResolution(set, v.ADC.Bits, b)
		if err != nil {
			return nil, err
		}
		out.ByBits = append(out.ByBits, red)
	}
	return out, nil
}

// IndexDeviation is Figure 4.4: the per-sample-index standard
// deviation of one ECU's edge sets, showing the edges' far larger
// variance compared to overshoot and steady state.
type IndexDeviation struct {
	StdDev []float64
	// EdgeIndices are the sample indices at the two threshold
	// crossings (start of the rising and falling windows).
	EdgeIndices [2]int
}

// RunIndexDeviation computes Figure 4.4 for one ECU of the vehicle.
func RunIndexDeviation(v *vehicle.Vehicle, ecu, n int, seed int64) (*IndexDeviation, error) {
	bundle, err := CollectEdgeSets(v, n, seed)
	if err != nil {
		return nil, err
	}
	if ecu < 0 || ecu >= len(bundle.Sets) || len(bundle.Sets[ecu]) < 2 {
		return nil, fmt.Errorf("experiments: no edge sets for ECU %d", ecu)
	}
	sets := bundle.Sets[ecu]
	dim := len(sets[0])
	out := &IndexDeviation{StdDev: make([]float64, dim)}
	col := make([]float64, len(sets))
	for i := 0; i < dim; i++ {
		for j, s := range sets {
			col[j] = s[i]
		}
		out.StdDev[i] = stats.StdDev(col)
	}
	cfg := v.ExtractionConfig()
	out.EdgeIndices = [2]int{cfg.PrefixLen, cfg.PrefixLen + cfg.SuffixLen + cfg.PrefixLen}
	return out, nil
}

// QuotientResult is Table 4.5 / Figure 4.5: the Euclidean and
// Mahalanobis distances from a held-out ECU-0 edge set to the means of
// ECUs 0 and 1, and their quotients. The Mahalanobis quotient being an
// order of magnitude larger is the paper's motivation for the metric.
type QuotientResult struct {
	EuclideanTo0, EuclideanTo1     float64
	MahalanobisTo0, MahalanobisTo1 float64
	EuclideanQuotient              float64
	MahalanobisQuotient            float64
	// Means and TestSet back Figure 4.5's plot.
	Means   []linalg.Vector
	TestSet linalg.Vector
}

// RunQuotient reproduces Table 4.5 on the Sterling Acterra stand-in.
func RunQuotient(n int, seed int64) (*QuotientResult, error) {
	v := vehicle.NewSterlingActerra()
	cfg := v.ExtractionConfig()
	samples, err := CollectSamples(v, n, seed, nil, cfg)
	if err != nil {
		return nil, err
	}
	// Hold out the last ECU-0 edge set as E_test.
	testIdx := -1
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].ECU == 0 {
			testIdx = i
			break
		}
	}
	if testIdx < 0 {
		return nil, fmt.Errorf("experiments: no ECU-0 message in %d samples", n)
	}
	test := samples[testIdx]
	train := append(append([]LabeledSample{}, samples[:testIdx]...), samples[testIdx+1:]...)

	model, err := core.Train(CoreSamples(train), core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap()})
	if err != nil {
		return nil, err
	}
	if len(model.Clusters) != 2 {
		return nil, fmt.Errorf("experiments: expected 2 clusters, got %d", len(model.Clusters))
	}
	c0, err := model.ClusterForSA(v.ECUs[0].SAs()[0])
	if err != nil {
		return nil, err
	}
	c1, err := model.ClusterForSA(v.ECUs[1].SAs()[0])
	if err != nil {
		return nil, err
	}
	res := &QuotientResult{
		EuclideanTo0:   linalg.Euclidean(test.Set, c0.Mean),
		EuclideanTo1:   linalg.Euclidean(test.Set, c1.Mean),
		MahalanobisTo0: model.Distance(c0, test.Set),
		MahalanobisTo1: model.Distance(c1, test.Set),
		Means:          []linalg.Vector{c0.Mean, c1.Mean},
		TestSet:        test.Set,
	}
	res.EuclideanQuotient = res.EuclideanTo1 / res.EuclideanTo0
	res.MahalanobisQuotient = res.MahalanobisTo1 / res.MahalanobisTo0
	return res, nil
}
