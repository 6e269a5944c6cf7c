// Package linalg provides the dense linear algebra vProfile needs:
// vectors, symmetric matrices, sample covariance (batch and online
// Welford form), matrix inversion via Cholesky factorisation with a
// Gauss-Jordan fallback, a packed Cholesky factor with the rank-1
// update the online model-update algorithm needs, and the Euclidean
// and Mahalanobis distance metrics of Section 2.2.2.
//
// Singular covariance matrices are reported with ErrSingular; the
// paper encounters them when quantisation below 12 bits collapses the
// per-sample variance (Section 4.3), and callers are expected to treat
// that as a configuration error rather than a crash.
package linalg
