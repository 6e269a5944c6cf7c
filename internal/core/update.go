package core

import (
	"fmt"

	"vprofile/internal/linalg"
)

// UpdateResult summarises one online model update.
type UpdateResult struct {
	Applied int // edge sets folded into clusters
	Skipped int // edge sets whose SA is not in the model
	// RetrainRecommended lists clusters whose N reached the model's
	// UpdateBound, the Section 5.3 criterion for training a fresh
	// model instead of continuing to dilute updates.
	RetrainRecommended []ClusterID
}

// Update implements Algorithm 4 (the Section 5.3 online model update):
// new edge sets are grouped through the cluster-SA lookup table, and
// each cluster's edge-set count, mean, covariance (Equation 5.1),
// Cholesky factor and maximum distance are updated per sample.
//
// Equation 5.1 scales the covariance and adds a positive rank-1 term,
// so the factor follows by a rank-1 Cholesky update rather than a
// refactorisation, keeping the per-sample cost at O(dim²), and the
// updated model scores on the same path as before. Samples with unknown
// SAs are skipped and counted — the caller should only feed messages
// the detector accepted.
func (m *Model) Update(samples []Sample) (UpdateResult, error) {
	var res UpdateResult
	for _, s := range samples {
		if len(s.Set) != m.Dim {
			return res, fmt.Errorf("%w: got %d dims, want %d", ErrDimMismatch, len(s.Set), m.Dim)
		}
		id, ok := m.SALUT[s.SA]
		if !ok {
			res.Skipped++
			continue
		}
		m.Clusters[id].push(m, s.Set)
		res.Applied++
	}
	if m.UpdateBound > 0 {
		for _, c := range m.Clusters {
			if c.N >= m.UpdateBound {
				res.RetrainRecommended = append(res.RetrainRecommended, c.ID)
			}
		}
	}
	return res, nil
}

// pushStackDim bounds the difference vector push keeps on the stack;
// edge sets have 32 dims with the paper's windows.
const pushStackDim = 64

// push folds one edge set into the cluster statistics.
func (c *Cluster) push(m *Model, set linalg.Vector) {
	nPrev := float64(c.N)
	c.N++
	n := float64(c.N)

	// d = x − mean_{n−1}; mean_n = mean_{n−1} + d/n. d lives on the
	// stack up to pushStackDim dims, so a fold allocates nothing.
	var stack [pushStackDim]float64
	d := linalg.Vector(stack[:0])
	if len(set) > pushStackDim {
		d = make(linalg.Vector, 0, len(set))
	}
	for i, v := range set {
		d = append(d, v-c.Mean[i])
	}
	for i := range c.Mean {
		c.Mean[i] += d[i] / n
	}

	if m.Metric == Mahalanobis {
		// Equation 5.1 in N-normalised form:
		//   Σ_n = (N_{n−1}/N_n)·Σ_{n−1} + ((n−1)/n²)·d·dᵀ
		// which is a scale plus a positive rank-1 update, so the
		// factor follows by a rank-1 Cholesky update.
		alpha := nPrev / n
		beta := nPrev / (n * n)
		if nPrev == 0 {
			// First sample of a cluster loaded empty: α = 0 would
			// scale the factor to singular, so both stay as they are.
			return
		}
		dim := m.Dim
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				c.Cov.Data[i*dim+j] = alpha*c.Cov.Data[i*dim+j] + beta*d[i]*d[j]
			}
		}
		c.chol.Rank1Update(alpha, beta, d)
	}

	if dist := m.Distance(c, set); dist > c.MaxDist {
		c.MaxDist = dist
	}
}
