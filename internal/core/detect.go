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
// MaxDist threshold. It is DetectExplainInto with the evidence
// discarded; the distances land on the stack, so a model of up to 16
// clusters scores without allocating.
func (m *Model) Detect(sa canbus.SourceAddress, set linalg.Vector) Detection {
	var buf [16]ClusterDistance
	det, _ := m.DetectExplainInto(sa, set, buf[:0])
	return det
}

// Nearest returns the cluster whose distance to the edge set is
// smallest, together with that distance.
func (m *Model) Nearest(set linalg.Vector) (ClusterID, float64) {
	best := ClusterID(-1)
	minDist := math.Inf(1)
	for _, c := range m.Clusters {
		if d := m.Distance(c, set); d < minDist {
			best, minDist = c.ID, d
		}
	}
	return best, minDist
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

// DetectExplain is Detect with its evidence preserved. The Detection
// it returns is bit-for-bit identical to Detect's — the same
// distances are computed in the same order with the same arithmetic —
// so instrumented and uninstrumented runs cannot diverge.
func (m *Model) DetectExplain(sa canbus.SourceAddress, set linalg.Vector) (Detection, Explanation) {
	return m.DetectExplainInto(sa, set, nil)
}

// DetectExplainInto is DetectExplain appending the per-cluster
// distances to buf, which may be nil. It is the one implementation of
// Algorithm 3's three rules — unknown SA, cluster mismatch, over
// threshold — that Detect and DetectExplain both run. The flight
// recorder hands in per-frame inline storage here, so explaining a
// verdict allocates nothing on the replay hot path.
func (m *Model) DetectExplainInto(sa canbus.SourceAddress, set linalg.Vector, buf []ClusterDistance) (Detection, Explanation) {
	expID, ok := m.SALUT[sa]
	if !ok {
		return Detection{Anomaly: true, Reason: ReasonUnknownSA, Expected: -1, Predict: -1},
			Explanation{Margin: m.Margin}
	}
	if buf == nil {
		buf = make([]ClusterDistance, 0, len(m.Clusters))
	}
	ex := Explanation{Distances: buf, Margin: m.Margin}
	det := Detection{Expected: expID, Predict: -1, MinDist: math.Inf(1)}
	for _, c := range m.Clusters {
		d := m.Distance(c, set)
		ex.Distances = append(ex.Distances, ClusterDistance{ID: c.ID, Dist: d})
		if d < det.MinDist {
			det.Predict, det.MinDist = c.ID, d
		}
	}
	ex.Threshold = m.Clusters[expID].MaxDist
	switch {
	case det.Predict != expID:
		det.Anomaly, det.Reason = true, ReasonClusterMismatch
	case det.MinDist > ex.Threshold+m.Margin:
		det.Anomaly, det.Reason = true, ReasonOverThreshold
	}
	return det, ex
}
