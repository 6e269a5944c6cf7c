package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// withTwins copies m with a twin of every cluster laid out before the
// originals, after them, or both. A twin shares its original's mean
// and covariance, so it scores bit-identically and every distance has
// an exact tie; it owns no SA, so the lookup still claims originals.
func withTwins(m *Model, before, after bool) *Model {
	t := &Model{Metric: m.Metric, Dim: m.Dim, Margin: m.Margin, SALUT: make(map[canbus.SourceAddress]ClusterID, len(m.SALUT))}
	add := func(twins bool) {
		for _, c := range m.Clusters {
			cc := *c
			cc.ID = ClusterID(len(t.Clusters))
			if twins {
				cc.SAs = nil
			}
			t.Clusters = append(t.Clusters, &cc)
		}
	}
	if before {
		add(true)
	}
	off := ClusterID(len(t.Clusters))
	add(false)
	for sa, id := range m.SALUT {
		t.SALUT[sa] = id + off
	}
	if after {
		add(true)
	}
	return t
}

// checkFullScan requires Detect to return DetectExplain's Detection,
// and both that and Nearest to agree with Algorithm 3 read off every
// cluster's full distance: the first cluster in model order with the
// smallest distance, or −1 and +Inf when none is below +Inf. It
// returns the Detection.
func checkFullScan(t testing.TB, m *Model, sa canbus.SourceAddress, set linalg.Vector) Detection {
	t.Helper()
	want, _ := m.DetectExplain(sa, set)
	if got := m.Detect(sa, set); got != want {
		t.Fatalf("SA %#02x, set %v: Detect %+v, full scan %+v", uint8(sa), set, got, want)
	}
	pred, minDist := ClusterID(-1), math.Inf(1)
	for _, c := range m.Clusters {
		if d := m.Distance(c, set); d < minDist {
			pred, minDist = c.ID, d
		}
	}
	if _, known := m.SALUT[sa]; known && (want.Predict != pred || want.MinDist != minDist) {
		t.Fatalf("SA %#02x, set %v: full scan predicts %d at %v, the distances %d at %v",
			uint8(sa), set, want.Predict, want.MinDist, pred, minDist)
	}
	if id, d := m.Nearest(set); id != pred || d != minDist {
		t.Fatalf("set %v: Nearest %d at %v, the distances %d at %v", set, id, d, pred, minDist)
	}
	return want
}

// parityModels are the models Detect must agree with the full scan
// on: factored Mahalanobis with and without exact ties (a twin ahead
// of the claimed cluster wins the tie, one behind it loses), the same
// model after Update has kept its factors current, and Euclidean.
func parityModels(t testing.TB) ([]string, []*Model, []synthECU) {
	maha, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	euc, _, _ := trainTest(t, Euclidean, TrainConfig{TargetClusters: 4, Margin: 1})
	updated, _, _ := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	if _, err := updated.Update(trainingData(rng, ecus, 5)); err != nil {
		t.Fatal(err)
	}
	for _, c := range updated.Clusters {
		if c.chol == nil {
			t.Fatalf("Update dropped cluster %d's Cholesky factor", c.ID)
		}
	}
	return []string{"mahalanobis", "twins-after", "twins-around", "updated", "euclidean"},
		[]*Model{maha, withTwins(maha, false, true), withTwins(maha, true, true), updated, euc},
		ecus
}

// TestDetectMatchesFullScan pins the early-abandoning Detect to the
// full scan DetectExplain runs, on benign sets, masquerades (every set
// under every other known SA), an unknown SA, sets equal to a cluster
// mean, exact ties and non-finite sets.
func TestDetectMatchesFullScan(t *testing.T) {
	names, models, ecus := parityModels(t)
	rng := rand.New(rand.NewSource(23))
	var sets []linalg.Vector
	for k := range ecus {
		for i := 0; i < 25; i++ {
			sets = append(sets, ecus[k].sample(rng).Set)
		}
	}
	for mi, m := range models {
		t.Run(names[mi], func(t *testing.T) {
			var sas []canbus.SourceAddress
			for sa := range m.SALUT {
				sas = append(sas, sa)
			}
			inputs := append([]linalg.Vector(nil), sets...)
			for _, c := range m.Clusters {
				inputs = append(inputs, c.Mean.Clone())
			}
			mismatches, ties := 0, 0
			for _, set := range inputs {
				for _, sa := range sas {
					det := checkFullScan(t, m, sa, set)
					if det.Reason == ReasonClusterMismatch {
						mismatches++
					}
					if det.Predict >= 0 && det.Predict != det.Expected &&
						m.Distance(m.Clusters[det.Expected], set) == det.MinDist {
						ties++
					}
				}
				if det := checkFullScan(t, m, 0xEE, set); det.Reason != ReasonUnknownSA {
					t.Fatalf("unknown SA: %+v", det)
				}
			}
			if mismatches == 0 {
				t.Fatal("no masquerade was a cluster mismatch")
			}
			if names[mi] == "twins-around" && ties == 0 {
				t.Fatal("no tie went to the twin ahead of the claimed cluster")
			}

			// A non-finite component makes every distance NaN or +Inf:
			// no cluster is nearest, and the frame must alarm as a
			// cluster mismatch rather than pass with a NaN distance.
			sa := sas[0]
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, j := range []int{0, m.Dim / 2, m.Dim - 1} {
					set := sets[j].Clone()
					set[j] = bad
					want := Detection{Anomaly: true, Reason: ReasonClusterMismatch, Expected: m.SALUT[sa], Predict: -1, MinDist: math.Inf(1)}
					if det := checkFullScan(t, m, sa, set); det != want {
						t.Fatalf("set %v: %+v, want %+v", set, det, want)
					}
				}
			}
		})
	}
}

// fuzzSet maps fuzz bytes to a claimed SA and an edge set around one of
// the model's cluster means. data[0] picks the SA (past the known ones,
// an unknown SA), data[1] the cluster, data[2] a power-of-two step, and
// each later byte, as an int8, that many steps off the mean in its
// dimension; 127, −128 and 126 stand for NaN, −Inf and +Inf. Dimensions
// past the data sit on the mean, which ties a cluster with its twins.
func fuzzSet(m *Model, sas []canbus.SourceAddress, data []byte) (canbus.SourceAddress, linalg.Vector) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	sa := canbus.SourceAddress(0xEE)
	if i := int(at(0)); i < len(sas) {
		sa = sas[i]
	}
	set := m.Clusters[int(at(1))%len(m.Clusters)].Mean.Clone()
	step := math.Ldexp(1, int(at(2)%32)-12)
	for j := range set {
		switch off := int8(at(3 + j)); off {
		case 127:
			set[j] = math.NaN()
		case -128:
			set[j] = math.Inf(-1)
		case 126:
			set[j] = math.Inf(1)
		default:
			set[j] += float64(off) * step
		}
	}
	return sa, set
}

// FuzzDetectMatchesExplain requires Detect to equal the full scan on
// fuzz-chosen SAs and edge sets, finite or not, under every parity
// model, and a set with a non-finite component to raise an alarm.
func FuzzDetectMatchesExplain(f *testing.F) {
	_, models, _ := parityModels(f)
	sas := make([][]canbus.SourceAddress, len(models))
	for i, m := range models {
		for sa := range m.SALUT {
			sas[i] = append(sas[i], sa)
		}
		slices.Sort(sas[i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, m := range models {
			sa, set := fuzzSet(m, sas[i], data)
			det := checkFullScan(t, m, sa, set)
			for _, v := range set {
				if (math.IsNaN(v) || math.IsInf(v, 0)) && !det.Anomaly {
					t.Fatalf("non-finite set %v accepted: %+v", set, det)
				}
			}
		}
	})
}
