// Package core implements the vProfile sender-identification system —
// the paper's primary contribution. It covers the three operational
// stages built on top of the preprocessing in package edgeset:
//
//   - Training (Algorithm 2): cluster edge sets by the ECU that sent
//     them, either through a known SA→ECU lookup table (the
//     "fortunate" case) or by agglomerative distance clustering of
//     per-SA means; store each cluster's mean, covariance matrix (for
//     the Mahalanobis metric, with its Cholesky factor) and maximum
//     intra-cluster distance.
//
//   - Detection (Algorithm 3): map the claimed source address to its
//     expected cluster, predict the nearest cluster by distance,
//     and raise an anomaly on unknown SA, cluster mismatch, or
//     distance beyond the trained threshold plus a configurable
//     margin.
//
//   - Online model update (Algorithm 4 / Equation 5.1): fold new edge
//     sets into a cluster's count, mean, covariance and maximum
//     distance without retraining, keeping the Cholesky factor current
//     with a rank-1 update so detection stays on the same path.
//
// Both distance metrics of Section 2.2.2 are supported; the paper's
// headline results use Mahalanobis distance, with Euclidean retained
// as the in-paper baseline (Tables 4.1–4.4).
package core
