package core

import (
	"fmt"
	"sort"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// Sample is one preprocessed training observation: a claimed source
// address paired with its extracted edge set.
type Sample struct {
	SA  canbus.SourceAddress
	Set linalg.Vector
}

// TrainConfig parameterises Algorithm 2.
type TrainConfig struct {
	Metric Metric

	// SAMap, when non-nil, is the "fortunate" case of Algorithm 2: a
	// database mapping each source address to an ECU index, used as
	// the clustering lookup table directly.
	SAMap map[canbus.SourceAddress]int

	// Without SAMap, per-SA groups are clustered agglomeratively on
	// the Euclidean distance between their mean edge sets.
	// TargetClusters stops merging at that cluster count; if zero,
	// merging continues while the closest pair is nearer than
	// MergeThreshold.
	TargetClusters int
	MergeThreshold float64

	// Margin is stored into the model (Section 3.2.3).
	Margin float64

	// Ridge, when positive, is added to the covariance diagonal before
	// factoring. Zero keeps the paper's behaviour where degenerate
	// (low-resolution) data surfaces ErrSingularCov.
	Ridge float64

	// UpdateBound is copied into the model for Section 5.3.
	UpdateBound int
}

// Train builds a model from labelled edge sets per Algorithm 2.
func Train(samples []Sample, cfg TrainConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	dim := len(samples[0].Set)
	if dim == 0 {
		return nil, ErrNoSamples
	}
	for i := range samples {
		if len(samples[i].Set) != dim {
			return nil, fmt.Errorf("%w: sample %d has %d dims, want %d", ErrDimMismatch, i, len(samples[i].Set), dim)
		}
	}

	bySA := groupBySA(samples)
	var groups []saGroup
	if cfg.SAMap != nil {
		groups = clusterByLUT(bySA, cfg.SAMap)
	} else {
		groups = clusterByDistance(bySA, cfg.TargetClusters, cfg.MergeThreshold)
	}

	m := &Model{
		Metric: cfg.Metric, Dim: dim, Margin: cfg.Margin, UpdateBound: cfg.UpdateBound,
		SALUT: make(map[canbus.SourceAddress]ClusterID),
	}
	for i, g := range groups {
		c := &Cluster{ID: ClusterID(i), SAs: g.sas, N: len(g.sets)}
		c.Mean = linalg.Mean(g.sets)
		if cfg.Metric == Mahalanobis {
			cov := linalg.Covariance(g.sets)
			if cfg.Ridge > 0 {
				cov = cov.AddScaledIdentity(cfg.Ridge)
			}
			f, err := linalg.PackCholesky(cov)
			if err != nil {
				return nil, fmt.Errorf("%w: cluster %d (SAs %v): %v", ErrSingularCov, i, g.sas, err)
			}
			c.Cov = cov
			c.chol = f
		}
		m.Clusters = append(m.Clusters, c)
		for _, sa := range g.sas {
			m.SALUT[sa] = c.ID
		}
	}
	// MaxDist comes from the same factor detection scores through, so
	// no training sample sits epsilon outside its own threshold.
	for i, g := range groups {
		c := m.Clusters[i]
		for _, s := range g.sets {
			if d := m.Distance(c, s); d > c.MaxDist {
				c.MaxDist = d
			}
		}
	}
	return m, nil
}

// saGroup is a set of edge sets belonging to one eventual cluster.
type saGroup struct {
	sas  []canbus.SourceAddress
	sets []linalg.Vector
}

// groupBySA splits samples into per-SA groups, ordered by SA for
// determinism.
func groupBySA(samples []Sample) map[canbus.SourceAddress][]linalg.Vector {
	out := make(map[canbus.SourceAddress][]linalg.Vector)
	for _, s := range samples {
		out[s.SA] = append(out[s.SA], s.Set)
	}
	return out
}

func sortedSAs(bySA map[canbus.SourceAddress][]linalg.Vector) []canbus.SourceAddress {
	sas := make([]canbus.SourceAddress, 0, len(bySA))
	for sa := range bySA {
		sas = append(sas, sa)
	}
	sort.Slice(sas, func(i, j int) bool { return sas[i] < sas[j] })
	return sas
}

// clusterByLUT is the fortunate case: the caller supplied the SA→ECU
// database. SAs missing from the map each form their own cluster.
func clusterByLUT(bySA map[canbus.SourceAddress][]linalg.Vector, saMap map[canbus.SourceAddress]int) []saGroup {
	byECU := make(map[int]*saGroup)
	var order []int
	next := 1 << 20 // synthetic ECU ids for unmapped SAs
	for _, sa := range sortedSAs(bySA) {
		ecu, ok := saMap[sa]
		if !ok {
			ecu = next
			next++
		}
		g, ok := byECU[ecu]
		if !ok {
			g = &saGroup{}
			byECU[ecu] = g
			order = append(order, ecu)
		}
		g.sas = append(g.sas, sa)
		g.sets = append(g.sets, bySA[sa]...)
	}
	out := make([]saGroup, 0, len(order))
	for _, ecu := range order {
		out = append(out, *byECU[ecu])
	}
	return out
}

// clusterByDistance implements the unfortunate case of Algorithm 2:
// group by SA, compute each group's mean, and agglomeratively merge
// the closest pair of groups (Euclidean distance between means) until
// either targetClusters remain or the closest pair is farther apart
// than mergeThreshold.
func clusterByDistance(bySA map[canbus.SourceAddress][]linalg.Vector, targetClusters int, mergeThreshold float64) []saGroup {
	groups := make([]saGroup, 0, len(bySA))
	means := make([]linalg.Vector, 0, len(bySA))
	for _, sa := range sortedSAs(bySA) {
		groups = append(groups, saGroup{sas: []canbus.SourceAddress{sa}, sets: bySA[sa]})
		means = append(means, linalg.Mean(bySA[sa]))
	}
	for len(groups) > 1 {
		if targetClusters > 0 && len(groups) <= targetClusters {
			break
		}
		bi, bj, best := -1, -1, 0.0
		for i := range groups {
			for j := i + 1; j < len(groups); j++ {
				d := linalg.Euclidean(means[i], means[j])
				if bi < 0 || d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if targetClusters <= 0 && best > mergeThreshold {
			break
		}
		// Merge j into i; recompute the merged mean sample-weighted.
		ni := float64(len(groups[bi].sets))
		nj := float64(len(groups[bj].sets))
		merged := means[bi].Scale(ni / (ni + nj)).Add(means[bj].Scale(nj / (ni + nj)))
		groups[bi].sas = append(groups[bi].sas, groups[bj].sas...)
		groups[bi].sets = append(groups[bi].sets, groups[bj].sets...)
		means[bi] = merged
		groups = append(groups[:bj], groups[bj+1:]...)
		means = append(means[:bj], means[bj+1:]...)
	}
	for i := range groups {
		sort.Slice(groups[i].sas, func(a, b int) bool { return groups[i].sas[a] < groups[i].sas[b] })
	}
	return groups
}
