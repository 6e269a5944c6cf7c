package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// synthetic cluster generator: ECU k has mean base+k·sep in every
// dimension with per-dimension noise.
type synthECU struct {
	sas   []canbus.SourceAddress
	mean  linalg.Vector
	sigma linalg.Vector
}

func makeECUs(dim int, seps []float64) []synthECU {
	out := make([]synthECU, len(seps))
	sa := canbus.SourceAddress(0)
	for k, sep := range seps {
		mean := make(linalg.Vector, dim)
		sigma := make(linalg.Vector, dim)
		for i := range mean {
			mean[i] = 1000 + sep + 10*float64(i)
			sigma[i] = 1 + 0.2*float64(i%5)
		}
		out[k] = synthECU{
			sas:   []canbus.SourceAddress{sa, sa + 1},
			mean:  mean,
			sigma: sigma,
		}
		sa += 2
	}
	return out
}

func (e *synthECU) sample(rng *rand.Rand) Sample {
	set := make(linalg.Vector, len(e.mean))
	for i := range set {
		set[i] = e.mean[i] + rng.NormFloat64()*e.sigma[i]
	}
	return Sample{SA: e.sas[rng.Intn(len(e.sas))], Set: set}
}

func trainingData(rng *rand.Rand, ecus []synthECU, perECU int) []Sample {
	var out []Sample
	for k := range ecus {
		for i := 0; i < perECU; i++ {
			out = append(out, ecus[k].sample(rng))
		}
	}
	return out
}

func trainTest(t testing.TB, metric Metric, cfg TrainConfig) (*Model, []synthECU, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	ecus := makeECUs(8, []float64{0, 200, 400, 600})
	cfg.Metric = metric
	m, err := Train(trainingData(rng, ecus, 120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ecus, rng
}

func TestTrainEmptyInput(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Train([]Sample{{SA: 0, Set: nil}}, TrainConfig{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("zero-dim err = %v", err)
	}
}

func TestTrainDimensionMismatch(t *testing.T) {
	samples := []Sample{
		{SA: 0, Set: linalg.Vector{1, 2}},
		{SA: 0, Set: linalg.Vector{1, 2, 3}},
	}
	if _, err := Train(samples, TrainConfig{}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrainByDistanceClustersSAsOfSameECU(t *testing.T) {
	m, ecus, _ := trainTest(t, Euclidean, TrainConfig{TargetClusters: 4})
	if len(m.Clusters) != 4 {
		t.Fatalf("%d clusters, want 4", len(m.Clusters))
	}
	// Both SAs of each synthetic ECU must map to the same cluster.
	for _, e := range ecus {
		c0, err := m.ClusterForSA(e.sas[0])
		if err != nil {
			t.Fatal(err)
		}
		c1, err := m.ClusterForSA(e.sas[1])
		if err != nil {
			t.Fatal(err)
		}
		if c0.ID != c1.ID {
			t.Fatalf("SAs %v split across clusters %d and %d", e.sas, c0.ID, c1.ID)
		}
	}
}

func TestTrainByMergeThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ecus := makeECUs(8, []float64{0, 500})
	samples := trainingData(rng, ecus, 80)
	// Intra-ECU SA means are a few units apart, inter-ECU ~500·√8.
	m, err := Train(samples, TrainConfig{Metric: Euclidean, MergeThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clusters) != 2 {
		t.Fatalf("%d clusters, want 2", len(m.Clusters))
	}
}

func TestTrainByLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ecus := makeECUs(8, []float64{0, 300, 600})
	samples := trainingData(rng, ecus, 60)
	saMap := make(map[canbus.SourceAddress]int)
	for k, e := range ecus {
		for _, sa := range e.sas {
			saMap[sa] = k
		}
	}
	m, err := Train(samples, TrainConfig{Metric: Mahalanobis, SAMap: saMap})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clusters) != 3 {
		t.Fatalf("%d clusters, want 3", len(m.Clusters))
	}
	for _, c := range m.Clusters {
		if len(c.SAs) != 2 {
			t.Fatalf("cluster %d has SAs %v", c.ID, c.SAs)
		}
		if c.chol == nil || c.Cov == nil {
			t.Fatalf("cluster %d missing covariance", c.ID)
		}
		if c.MaxDist <= 0 {
			t.Fatalf("cluster %d MaxDist %v", c.ID, c.MaxDist)
		}
	}
}

func TestTrainMahalanobisSingularWithoutVariance(t *testing.T) {
	samples := make([]Sample, 50)
	for i := range samples {
		samples[i] = Sample{SA: 1, Set: linalg.Vector{1, 2, 3, 4}}
	}
	_, err := Train(samples, TrainConfig{Metric: Mahalanobis, TargetClusters: 1})
	if !errors.Is(err, ErrSingularCov) {
		t.Fatalf("err = %v", err)
	}
	// Ridge regularisation rescues it.
	if _, err := Train(samples, TrainConfig{Metric: Mahalanobis, TargetClusters: 1, Ridge: 1e-3}); err != nil {
		t.Fatalf("ridge: %v", err)
	}
}

func TestDetectLegitimateTraffic(t *testing.T) {
	for _, metric := range []Metric{Euclidean, Mahalanobis} {
		m, ecus, rng := trainTest(t, metric, TrainConfig{TargetClusters: 4, Margin: 1})
		fp := 0
		const n = 400
		for i := 0; i < n; i++ {
			e := &ecus[i%len(ecus)]
			s := e.sample(rng)
			if d := m.Detect(s.SA, s.Set); d.Anomaly {
				fp++
			}
		}
		if fp > n/100 {
			t.Fatalf("%v: %d/%d false positives", metric, fp, n)
		}
	}
}

// TestDetectAllocFree pins Detect at zero allocations per call, on a
// trained model and on the same model after an online Update. Detect
// shares Algorithm 3 with DetectExplainInto but keeps no distances, so
// the untraced replay path pays nothing for sharing it.
func TestDetectAllocFree(t *testing.T) {
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	ok, forged := ecus[1].sample(rng), ecus[2].sample(rng)
	forged.SA = ok.SA
	updated, _, _ := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	if _, err := updated.Update(trainingData(rng, ecus, 5)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{m, updated} {
		for _, s := range []Sample{ok, forged} {
			want, _ := m.DetectExplain(s.SA, s.Set)
			var got Detection
			if allocs := testing.AllocsPerRun(100, func() { got = m.Detect(s.SA, s.Set) }); allocs != 0 {
				t.Fatalf("Detect allocates %.0f times per call, want 0", allocs)
			}
			if got != want {
				t.Fatalf("Detect %+v, DetectExplain %+v", got, want)
			}
		}
	}
}

func TestDetectUnknownSA(t *testing.T) {
	m, _, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	set := make(linalg.Vector, 8)
	for i := range set {
		set[i] = rng.NormFloat64()
	}
	d := m.Detect(0xEE, set)
	if !d.Anomaly || d.Reason != ReasonUnknownSA {
		t.Fatalf("detection %+v", d)
	}
}

func TestDetectHijack(t *testing.T) {
	// A message whose waveform comes from ECU 0 but claims ECU 2's SA
	// must be flagged as a cluster mismatch.
	for _, metric := range []Metric{Euclidean, Mahalanobis} {
		m, ecus, rng := trainTest(t, metric, TrainConfig{TargetClusters: 4, Margin: 1})
		caught := 0
		const n = 300
		for i := 0; i < n; i++ {
			s := ecus[0].sample(rng)
			s.SA = ecus[2].sas[0] // forged SA
			d := m.Detect(s.SA, s.Set)
			if d.Anomaly && d.Reason == ReasonClusterMismatch {
				caught++
			}
		}
		if caught < n*99/100 {
			t.Fatalf("%v: only %d/%d hijacks caught", metric, caught, n)
		}
	}
}

func TestDetectForeignDeviceOverThreshold(t *testing.T) {
	// A foreign device imitating ECU 0's mean but with a systematic
	// offset must trip the threshold check under Mahalanobis.
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	caught := 0
	const n = 300
	for i := 0; i < n; i++ {
		s := ecus[0].sample(rng)
		for j := range s.Set {
			s.Set[j] += 12 // foreign hardware bias, small vs the 200-unit cluster gap
		}
		s.SA = ecus[0].sas[0]
		if d := m.Detect(s.SA, s.Set); d.Anomaly {
			caught++
		}
	}
	if caught < n*95/100 {
		t.Fatalf("only %d/%d foreign messages caught", caught, n)
	}
}

func TestDetectMarginTradeoff(t *testing.T) {
	// A huge margin must accept everything near the cluster, including
	// mild foreign bias (false negatives) — the Section 3.2.3 tradeoff.
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1e6})
	s := ecus[0].sample(rng)
	for j := range s.Set {
		s.Set[j] += 12
	}
	if d := m.Detect(ecus[0].sas[0], s.Set); d.Anomaly {
		t.Fatalf("huge margin still flagged: %+v", d)
	}
}

func TestNearestIdentifiesOrigin(t *testing.T) {
	// Section 3.2.3: the predicted cluster identifies the attack's
	// origin for in-model ECUs.
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	for k := range ecus {
		s := ecus[k].sample(rng)
		want, err := m.ClusterForSA(ecus[k].sas[0])
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Nearest(s.Set); got != want.ID {
			t.Fatalf("ECU %d predicted cluster %d want %d", k, got, want.ID)
		}
	}
}

func TestInterClusterDistanceAndClosestPair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Three ECUs: 0 and 1 close (sep 60), 2 far.
	ecus := makeECUs(8, []float64{0, 60, 900})
	m, err := Train(trainingData(rng, ecus, 150), TrainConfig{Metric: Mahalanobis, TargetClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b, dist, err := m.ClosestClusterPair()
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := m.ClusterForSA(ecus[0].sas[0])
	cb, _ := m.ClusterForSA(ecus[1].sas[0])
	if !((a == ca.ID && b == cb.ID) || (a == cb.ID && b == ca.ID)) {
		t.Fatalf("closest pair (%d,%d), want {%d,%d}", a, b, ca.ID, cb.ID)
	}
	if dist <= 0 || math.IsInf(dist, 0) {
		t.Fatalf("distance %v", dist)
	}
}

func TestDistancePanicsOnDimMismatch(t *testing.T) {
	m, _, _ := trainTest(t, Euclidean, TrainConfig{TargetClusters: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Distance(m.Clusters[0], linalg.Vector{1})
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	for _, metric := range []Metric{Euclidean, Mahalanobis} {
		m, ecus, rng := trainTest(t, metric, TrainConfig{TargetClusters: 4, Margin: 2.5})
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metric != m.Metric || got.Dim != m.Dim || got.Margin != m.Margin {
			t.Fatalf("header mismatch: %+v", got)
		}
		if len(got.Clusters) != len(m.Clusters) || len(got.SALUT) != len(m.SALUT) {
			t.Fatalf("shape mismatch")
		}
		// Loaded model must produce identical detections.
		for i := 0; i < 100; i++ {
			e := &ecus[i%len(ecus)]
			s := e.sample(rng)
			d1 := m.Detect(s.SA, s.Set)
			d2 := got.Detect(s.SA, s.Set)
			if d1 != d2 {
				t.Fatalf("detection diverged after reload: %+v vs %+v", d1, d2)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestUpdateFoldsNewSamples(t *testing.T) {
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	c0, _ := m.ClusterForSA(ecus[0].sas[0])
	nBefore := c0.N
	meanBefore := c0.Mean.Clone()

	// Drifted ECU 0 samples: +8 on every dimension.
	var drifted []Sample
	for i := 0; i < 200; i++ {
		s := ecus[0].sample(rng)
		for j := range s.Set {
			s.Set[j] += 8
		}
		drifted = append(drifted, s)
	}
	res, err := m.Update(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 200 || res.Skipped != 0 {
		t.Fatalf("result %+v", res)
	}
	if c0.N != nBefore+200 {
		t.Fatalf("N = %d, want %d", c0.N, nBefore+200)
	}
	// Mean must have moved toward the drifted data.
	if c0.Mean[0] <= meanBefore[0] {
		t.Fatalf("mean did not move: %v -> %v", meanBefore[0], c0.Mean[0])
	}
}

// TestUpdateKeepsInverseConsistent checks the scoring state Update
// maintains: after 100 rank-1 updates the cluster's Cholesky factor
// must score like a fresh factorisation of the updated covariance, and
// so must the model after a Save/Load round trip, which refactors it.
func TestUpdateKeepsInverseConsistent(t *testing.T) {
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	var fresh []Sample
	for i := 0; i < 100; i++ {
		fresh = append(fresh, ecus[1].sample(rng))
	}
	if _, err := m.Update(fresh); err != nil {
		t.Fatal(err)
	}
	c, _ := m.ClusterForSA(ecus[1].sas[0])
	direct, err := linalg.PackCholesky(c.Cov)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lc := loaded.Clusters[c.ID]
	for trial := 0; trial < 100; trial++ {
		set := ecus[trial%len(ecus)].sample(rng).Set
		want := math.Sqrt(linalg.MahalanobisSqChol(set, c.Mean, direct))
		for name, got := range map[string]float64{"maintained": m.Distance(c, set), "reloaded": loaded.Distance(lc, set)} {
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("trial %d: %s factor scores %v, a fresh factorisation %v (rel diff %g)",
					trial, name, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

func TestUpdateAdaptsToDrift(t *testing.T) {
	// The Section 5.3 motivation: after environmental drift the old
	// model starts flagging legitimate traffic; updating with accepted
	// messages restores detection.
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	drift := func(s Sample, amt float64) Sample {
		for j := range s.Set {
			s.Set[j] += amt
		}
		return s
	}
	// Severe drift on ECU 3: mostly rejected before update.
	rejectedBefore := 0
	for i := 0; i < 100; i++ {
		s := drift(ecus[3].sample(rng), 15)
		if m.Detect(s.SA, s.Set).Anomaly {
			rejectedBefore++
		}
	}
	if rejectedBefore < 50 {
		t.Fatalf("drift not severe enough to matter: %d rejections", rejectedBefore)
	}
	// Gradual adaptation: update with mildly drifted accepted data.
	for step := 1; step <= 15; step++ {
		var batch []Sample
		for i := 0; i < 60; i++ {
			batch = append(batch, drift(ecus[3].sample(rng), float64(step)))
		}
		if _, err := m.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	rejectedAfter := 0
	for i := 0; i < 100; i++ {
		s := drift(ecus[3].sample(rng), 15)
		if m.Detect(s.SA, s.Set).Anomaly {
			rejectedAfter++
		}
	}
	if rejectedAfter >= rejectedBefore/2 {
		t.Fatalf("update did not adapt: %d before, %d after", rejectedBefore, rejectedAfter)
	}
}

func TestUpdateSkipsUnknownSA(t *testing.T) {
	m, _, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	set := make(linalg.Vector, m.Dim)
	for i := range set {
		set[i] = rng.NormFloat64()
	}
	res, err := m.Update([]Sample{{SA: 0xEE, Set: set}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Skipped != 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestUpdateRecommendsRetrain(t *testing.T) {
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, UpdateBound: 130})
	var batch []Sample
	for i := 0; i < 20; i++ {
		batch = append(batch, ecus[0].sample(rng))
	}
	res, err := m.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Training used 120 samples per ECU; +20 pushes ECU 0's cluster
	// over the bound of 130.
	c0, _ := m.ClusterForSA(ecus[0].sas[0])
	found := false
	for _, id := range res.RetrainRecommended {
		if id == c0.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("retrain not recommended for cluster %d: %+v", c0.ID, res)
	}
}

func TestUpdateDimensionMismatch(t *testing.T) {
	m, _, _ := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4})
	_, err := m.Update([]Sample{{SA: 0, Set: linalg.Vector{1}}})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" || Mahalanobis.String() != "mahalanobis" {
		t.Fatal("metric names wrong")
	}
	if Metric(9).String() == "" {
		t.Fatal("unknown metric renders empty")
	}
}

func TestReasonString(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonNone:            "ok",
		ReasonUnknownSA:       "unknown-sa",
		ReasonClusterMismatch: "cluster-mismatch",
		ReasonOverThreshold:   "over-threshold",
	} {
		if r.String() != want {
			t.Errorf("%d renders %q", r, r.String())
		}
	}
}
