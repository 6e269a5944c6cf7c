package core

import (
	"fmt"
	"math"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// Reason explains why a message was flagged.
type Reason int

// Detection reasons, in the order Algorithm 3 checks them.
const (
	ReasonNone            Reason = iota // message accepted
	ReasonUnknownSA                     // claimed SA absent from the LUT
	ReasonClusterMismatch               // nearest cluster differs from the claimed one
	ReasonOverThreshold                 // distance exceeds MaxDist + margin
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "ok"
	case ReasonUnknownSA:
		return "unknown-sa"
	case ReasonClusterMismatch:
		return "cluster-mismatch"
	case ReasonOverThreshold:
		return "over-threshold"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Detection is the outcome of classifying one message.
type Detection struct {
	Anomaly  bool
	Reason   Reason
	Expected ClusterID // cluster the claimed SA maps to (−1 if unknown)
	Predict  ClusterID // nearest cluster by distance (−1 if unknown SA)
	MinDist  float64   // distance to the nearest cluster
}

// Detect classifies an edge set claiming to originate from sa, per
// Algorithm 3. The model's Margin widens each cluster's trained
// MaxDist threshold. It returns the same Detection as DetectExplain
// from fewer distances: the claimed cluster is scored in full first,
// and every other cluster is dropped at the row where it can no
// longer be the nearest (see nearest). It does not allocate.
func (m *Model) Detect(sa canbus.SourceAddress, set linalg.Vector) Detection {
	det, _ := m.detect(sa, set, nil)
	return det
}

// Nearest returns the cluster whose distance to the edge set is
// smallest (the first in model order on a tie), together with that
// distance; −1 and +Inf when no distance is below +Inf.
func (m *Model) Nearest(set linalg.Vector) (ClusterID, float64) {
	id, d, _ := m.nearest(set, -1, nil)
	return id, d
}

// ClusterDistance is one cluster's distance to an edge set. The JSON
// tags are for the flight recorder, whose decision records carry the
// slice DetectExplain built without converting or copying it.
type ClusterDistance struct {
	ID   ClusterID `json:"cluster"`
	Dist float64   `json:"dist"`
}

// Explanation is the full evidence behind a Detection: the distance
// to every cluster (not just the nearest), and the threshold and
// margin the verdict was judged against. It exists for forensics —
// an alarm is only actionable if the numbers that produced it
// survive the moment.
type Explanation struct {
	// Distances holds one entry per cluster, in cluster order. Empty
	// when the claimed SA is unknown (Algorithm 3 rejects before any
	// distance is computed).
	Distances []ClusterDistance
	// Threshold is the expected cluster's trained MaxDist (zero when
	// the SA is unknown); Margin is the model's detection margin. The
	// over-threshold rule is MinDist > Threshold + Margin.
	Threshold float64
	Margin    float64
}

// DetectExplain is Detect with its evidence preserved: it computes
// every cluster's distance in full. The Detection it returns is
// bit-for-bit identical to Detect's — Detect finishes the distances
// that can decide the verdict with the same arithmetic and skips only
// those that provably cannot — so instrumented and uninstrumented runs
// cannot diverge.
func (m *Model) DetectExplain(sa canbus.SourceAddress, set linalg.Vector) (Detection, Explanation) {
	return m.DetectExplainInto(sa, set, nil)
}

// DetectExplainInto is DetectExplain appending the per-cluster
// distances to buf, which may be nil. The flight recorder hands in
// per-frame inline storage here, so explaining a verdict allocates
// nothing on the replay hot path.
func (m *Model) DetectExplainInto(sa canbus.SourceAddress, set linalg.Vector, buf []ClusterDistance) (Detection, Explanation) {
	if buf == nil {
		buf = make([]ClusterDistance, 0, len(m.Clusters))
	}
	return m.detect(sa, set, buf)
}

// detect is the one implementation of Algorithm 3's three rules —
// unknown SA, cluster mismatch, over threshold — that Detect and
// DetectExplainInto both run. With dists nil it scans as Detect does;
// otherwise it computes every distance and appends it to dists.
func (m *Model) detect(sa canbus.SourceAddress, set linalg.Vector, dists []ClusterDistance) (Detection, Explanation) {
	expID, ok := m.SALUT[sa]
	if !ok {
		return Detection{Anomaly: true, Reason: ReasonUnknownSA, Expected: -1, Predict: -1},
			Explanation{Margin: m.Margin}
	}
	det := Detection{Expected: expID}
	ex := Explanation{Threshold: m.Clusters[expID].MaxDist, Margin: m.Margin}
	if dists == nil {
		det.Predict, det.MinDist, _ = m.nearest(set, expID, nil)
	} else {
		det.Predict, det.MinDist, ex.Distances = m.nearest(set, -1, dists)
	}
	switch {
	case det.Predict != expID:
		det.Anomaly, det.Reason = true, ReasonClusterMismatch
	case det.MinDist > ex.Threshold+m.Margin:
		det.Anomaly, det.Reason = true, ReasonOverThreshold
	}
	return det, ex
}

// nearest is the one nearest-cluster scan: it returns the first
// cluster in model order with the smallest distance to set, and that
// distance, or −1 and +Inf when none is below +Inf (a set with a NaN
// component). Cluster first, unless −1, is scored before the others.
//
// With dists nil, every cluster scored once a best is held stops at
// the row where its running sum of squares exceeds squareLimit(best):
// it is then strictly farther, so neither a win nor a tie is lost.
// With dists non-nil every distance is finished and appended, in the
// order scored, to the returned slice.
func (m *Model) nearest(set linalg.Vector, first ClusterID, dists []ClusterDistance) (ClusterID, float64, []ClusterDistance) {
	best, bestDist, limit := ClusterID(-1), math.Inf(1), math.Inf(1)
	for i := -1; i < len(m.Clusters); i++ {
		id := ClusterID(i)
		if i < 0 {
			id = first // the turn before cluster 0 is first's
		} else if id == first {
			continue
		}
		if id < 0 {
			continue
		}
		c := m.Clusters[id]
		d, done := m.distanceWithin(c, set, limit)
		if dists != nil {
			dists = append(dists, ClusterDistance{ID: c.ID, Dist: d})
		}
		if done && (d < bestDist || d == bestDist && c.ID < best) {
			best, bestDist = c.ID, d
			if dists == nil {
				limit = squareLimit(d)
			}
		}
	}
	return best, bestDist, dists
}

// squareLimit returns the largest float64 whose square root does not
// exceed d (+Inf for +Inf), so a sum of squares above it lies strictly
// farther than d. math.Sqrt is correctly rounded, hence monotone, and
// √(d·d) = d unless d·d underflows; there the limit may be a step
// high, which only finishes a sum that could have stopped.
func squareLimit(d float64) float64 {
	s := d * d
	for s < math.Inf(1) {
		next := math.Nextafter(s, math.Inf(1))
		if math.Sqrt(next) > d {
			break
		}
		s = next
	}
	return s
}
