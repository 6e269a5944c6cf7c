package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// Metric selects the distance function of Section 2.2.2.
type Metric int

// Supported distance metrics.
const (
	Euclidean Metric = iota
	Mahalanobis
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Mahalanobis:
		return "mahalanobis"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// ClusterID indexes a cluster (one per physical ECU) within a model.
type ClusterID int

// Errors reported by the package.
var (
	ErrNoSamples      = errors.New("core: no training samples")
	ErrDimMismatch    = errors.New("core: edge set dimensionality mismatch")
	ErrSingularCov    = errors.New("core: singular covariance matrix (resolution or sample count too low)")
	ErrUnknownSA      = errors.New("core: source address not in model")
	ErrUnknownCluster = errors.New("core: cluster id out of range")
)

// Cluster holds the trained statistics of one ECU: everything the
// model of Algorithm 2 stores per cluster, extended with the counters
// Algorithm 4 needs for online updates.
type Cluster struct {
	ID   ClusterID
	SAs  []canbus.SourceAddress // source addresses this ECU transmits
	Mean linalg.Vector
	// Cov is populated for the Mahalanobis metric; it stays nil under
	// Euclidean where Σ is implicitly the identity.
	Cov     *linalg.Matrix
	MaxDist float64 // largest training-sample distance to the mean
	N       int     // number of edge sets folded into the statistics

	// chol is the packed Cholesky factor of Cov, the cluster's one
	// Mahalanobis scoring state: Train and Load build it, Update keeps
	// it current alongside Cov, and it is never serialised.
	chol *linalg.CholFactor
}

// Model is a trained vProfile instance: the cluster↔SA lookup table,
// per-cluster statistics and the detection margin.
type Model struct {
	Metric Metric
	Dim    int

	SALUT    map[canbus.SourceAddress]ClusterID
	Clusters []*Cluster

	// Margin is added to each cluster's MaxDist threshold during
	// detection (Section 3.2.3): too small inflates false positives,
	// too large inflates false negatives.
	Margin float64

	// UpdateBound is the Section 5.3 upper bound M on a cluster's N
	// beyond which online updates have negligible effect and a full
	// retrain is recommended. Zero disables the recommendation.
	UpdateBound int
}

// Cluster returns the cluster with the given id.
func (m *Model) Cluster(id ClusterID) (*Cluster, error) {
	if id < 0 || int(id) >= len(m.Clusters) {
		return nil, ErrUnknownCluster
	}
	return m.Clusters[id], nil
}

// ClusterForSA resolves a source address through the lookup table.
func (m *Model) ClusterForSA(sa canbus.SourceAddress) (*Cluster, error) {
	id, ok := m.SALUT[sa]
	if !ok {
		return nil, fmt.Errorf("%w: %#02x", ErrUnknownSA, uint8(sa))
	}
	return m.Clusters[id], nil
}

// Distance returns the distance from an edge set to the cluster under
// the model's metric. The Mahalanobis case runs a triangular solve over
// the cluster's packed Cholesky factor — no inverse, no allocation — so
// the threshold (MaxDist) and detection distances always come from the
// same arithmetic, before and after an online update.
func (m *Model) Distance(c *Cluster, set linalg.Vector) float64 {
	d, _ := m.distanceWithin(c, set, math.Inf(1))
	return d
}

// distanceWithin is Distance that may stop early. A Mahalanobis
// distance is a running sum of squares: it reports false at the first
// row where that sum exceeds limit, which the full sum would exceed
// too. A Euclidean distance is scored in full. With limit +Inf it is
// Distance.
func (m *Model) distanceWithin(c *Cluster, set linalg.Vector, limit float64) (float64, bool) {
	if len(set) != m.Dim {
		panic(ErrDimMismatch)
	}
	if m.Metric == Mahalanobis {
		q, done := linalg.MahalanobisSqCholWithin(set, c.Mean, c.chol, limit)
		return math.Sqrt(q), done
	}
	return linalg.Euclidean(set, c.Mean), true
}

// InterClusterDistance returns the distance from cluster a's mean to
// cluster b (to b's distribution under Mahalanobis, to b's mean under
// Euclidean). The evaluation uses it to pick the two most similar ECUs
// for the foreign-device imitation test.
func (m *Model) InterClusterDistance(a, b ClusterID) (float64, error) {
	ca, err := m.Cluster(a)
	if err != nil {
		return 0, err
	}
	cb, err := m.Cluster(b)
	if err != nil {
		return 0, err
	}
	return m.Distance(cb, ca.Mean), nil
}

// ClosestClusterPair returns the pair of distinct clusters with the
// smallest inter-cluster distance (symmetrised as the min of the two
// directed distances) along with that distance.
func (m *Model) ClosestClusterPair() (a, b ClusterID, dist float64, err error) {
	if len(m.Clusters) < 2 {
		return 0, 0, 0, errors.New("core: need at least two clusters")
	}
	best := -1.0
	for i := range m.Clusters {
		for j := i + 1; j < len(m.Clusters); j++ {
			dij, err := m.InterClusterDistance(ClusterID(i), ClusterID(j))
			if err != nil {
				return 0, 0, 0, err
			}
			dji, err := m.InterClusterDistance(ClusterID(j), ClusterID(i))
			if err != nil {
				return 0, 0, 0, err
			}
			d := dij
			if dji < d {
				d = dji
			}
			if best < 0 || d < best {
				best = d
				a, b = ClusterID(i), ClusterID(j)
			}
		}
	}
	return a, b, best, nil
}

// Model file format identification: a magic string and version
// precede the gob payload so stale or foreign files fail loudly
// instead of decoding into garbage.
const (
	modelMagic   = "VPMDL"
	modelVersion = 1
)

// ErrModelFormat reports an unrecognised or incompatible model file.
var ErrModelFormat = errors.New("core: not a compatible vProfile model file")

// modelWire is the gob-encoded form of a Model.
type modelWire struct {
	Metric      Metric
	Dim         int
	Margin      float64
	UpdateBound int
	SALUT       map[uint8]int
	Clusters    []clusterWire
}

type clusterWire struct {
	SAs  []uint8
	Mean []float64
	Cov  []float64 // Dim×Dim row-major, empty for Euclidean
	// InvCov is written only by older builds. Load checks its shape
	// and ignores it: the Cholesky factor of Cov is the scoring state.
	InvCov  []float64
	MaxDist float64
	N       int
}

// check rejects cluster statistics whose shape does not match the
// model's: every distance computation indexes them by dim, so a short
// slice would panic at load or at the first scored frame.
func (cw *clusterWire) check(metric Metric, dim int) error {
	if len(cw.Mean) != dim {
		return fmt.Errorf("mean has %d values, want %d", len(cw.Mean), dim)
	}
	if cw.N < 0 {
		// Update's Eq. 5.1 weights would turn negative.
		return fmt.Errorf("edge-set count %d is negative", cw.N)
	}
	// dim equals a decoded slice length here, so dim*dim cannot
	// overflow. The inverse is optional: only older builds write it.
	for _, mat := range [...]struct {
		name     string
		data     []float64
		optional bool
	}{{"covariance", cw.Cov, metric == Euclidean}, {"inverse covariance", cw.InvCov, true}} {
		if len(mat.data) == 0 && mat.optional {
			continue
		}
		if len(mat.data) != dim*dim {
			return fmt.Errorf("%s has %d values, want %d", mat.name, len(mat.data), dim*dim)
		}
	}
	return nil
}

// Save serialises the model.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{modelVersion}); err != nil {
		return err
	}
	wire := modelWire{
		Metric: m.Metric, Dim: m.Dim, Margin: m.Margin, UpdateBound: m.UpdateBound,
		SALUT: make(map[uint8]int, len(m.SALUT)),
	}
	for sa, id := range m.SALUT {
		wire.SALUT[uint8(sa)] = int(id)
	}
	for _, c := range m.Clusters {
		cw := clusterWire{Mean: c.Mean, MaxDist: c.MaxDist, N: c.N}
		for _, sa := range c.SAs {
			cw.SAs = append(cw.SAs, uint8(sa))
		}
		if c.Cov != nil {
			cw.Cov = c.Cov.Data
		}
		wire.Clusters = append(wire.Clusters, cw)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load deserialises a model previously written by Save. Model files
// are external input, so a payload whose metric, dimension or cluster
// shapes are inconsistent, or whose Mahalanobis covariance will not
// factor (ErrSingularCov), fails with ErrModelFormat instead of
// panicking or scoring nonsense later. Covariances round-trip
// bit-exactly and the factorisation is deterministic, so a loaded model
// scores identically to a never-updated model that was saved.
func Load(r io.Reader) (*Model, error) {
	head := make([]byte, len(modelMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelFormat, err)
	}
	if string(head[:len(modelMagic)]) != modelMagic {
		return nil, ErrModelFormat
	}
	if head[len(modelMagic)] != modelVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrModelFormat, head[len(modelMagic)], modelVersion)
	}
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if wire.Metric != Euclidean && wire.Metric != Mahalanobis {
		return nil, fmt.Errorf("%w: unknown metric %d", ErrModelFormat, int(wire.Metric))
	}
	if wire.Dim <= 0 {
		return nil, fmt.Errorf("%w: dimension %d", ErrModelFormat, wire.Dim)
	}
	m := &Model{
		Metric: wire.Metric, Dim: wire.Dim, Margin: wire.Margin,
		UpdateBound: wire.UpdateBound,
		SALUT:       make(map[canbus.SourceAddress]ClusterID, len(wire.SALUT)),
	}
	for sa, id := range wire.SALUT {
		m.SALUT[canbus.SourceAddress(sa)] = ClusterID(id)
	}
	for i, cw := range wire.Clusters {
		if err := cw.check(wire.Metric, wire.Dim); err != nil {
			return nil, fmt.Errorf("%w: cluster %d: %v", ErrModelFormat, i, err)
		}
		c := &Cluster{ID: ClusterID(i), Mean: cw.Mean, MaxDist: cw.MaxDist, N: cw.N}
		for _, sa := range cw.SAs {
			c.SAs = append(c.SAs, canbus.SourceAddress(sa))
		}
		if len(cw.Cov) > 0 {
			c.Cov = &linalg.Matrix{Rows: wire.Dim, Cols: wire.Dim, Data: cw.Cov}
		}
		if wire.Metric == Mahalanobis {
			f, err := linalg.PackCholesky(c.Cov)
			if err != nil {
				return nil, fmt.Errorf("%w: cluster %d: %w", ErrModelFormat, i, ErrSingularCov)
			}
			c.chol = f
		}
		m.Clusters = append(m.Clusters, c)
	}
	for sa, id := range m.SALUT {
		if id < 0 || int(id) >= len(m.Clusters) {
			return nil, fmt.Errorf("core: model LUT maps SA %#02x to cluster %d of %d", uint8(sa), id, len(m.Clusters))
		}
	}
	return m, nil
}
