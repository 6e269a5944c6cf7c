package linalg

import "math"

// CholFactor is a lower-triangular Cholesky factor L (with Σ = L·Lᵀ)
// stored packed in one flat row-major []float64: row j occupies
// Data[j(j+1)/2 : j(j+1)/2+j+1]. The packed layout halves the memory
// of the square factor and keeps the forward-substitution walk a
// single linear scan, which is what makes the Mahalanobis hot path
// cache friendly.
type CholFactor struct {
	N    int
	Data []float64 // len N(N+1)/2
}

// PackCholesky factors a symmetric positive-definite matrix via
// Matrix.Cholesky and packs the lower triangle. It returns ErrSingular
// when the matrix is not positive definite within tolerance.
func PackCholesky(m *Matrix) (*CholFactor, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	n := l.Rows
	f := &CholFactor{N: n, Data: make([]float64, n*(n+1)/2)}
	k := 0
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			f.Data[k] = l.At(j, i)
			k++
		}
	}
	return f, nil
}

// cholStackDim bounds the solve buffer kept on the stack. Edge-set
// vectors are 2×(prefix+suffix) samples — 32 for the paper's reference
// configuration — so the heap fallback only triggers for unusually
// wide models.
const cholStackDim = 64

// MahalanobisSqChol returns the squared Mahalanobis distance of x from
// a distribution with the given mean and covariance factor: it solves
// L·y = (x − mean) by forward substitution and returns Σ y², which
// equals (x−mean)ᵀ·Σ⁻¹·(x−mean) without ever forming the inverse. As
// a sum of squares the result is non-negative by construction, so no
// clamping is needed.
func MahalanobisSqChol(x, mean Vector, f *CholFactor) float64 {
	q, _ := MahalanobisSqCholWithin(x, mean, f, math.Inf(1))
	return q
}

// MahalanobisSqCholWithin is MahalanobisSqChol that gives up early: it
// returns the partial sum and false at the first row where the running
// Σ y² exceeds limit. Every term is a square, so the running sum never
// decreases and the full sum would exceed limit too. A NaN sum never
// exceeds limit, and nothing exceeds +Inf: with limit +Inf this is
// MahalanobisSqChol, row for row and bit for bit.
func MahalanobisSqCholWithin(x, mean Vector, f *CholFactor, limit float64) (float64, bool) {
	n := f.N
	mustSameLen(len(x), n)
	mustSameLen(len(mean), n)
	var stack [cholStackDim]float64
	y := stack[:]
	if n > cholStackDim {
		y = make([]float64, n)
	}
	var q float64
	row := 0 // offset of packed row j = j(j+1)/2, maintained incrementally
	for j := 0; j < n; j++ {
		s := x[j] - mean[j]
		for k := 0; k < j; k++ {
			s -= f.Data[row+k] * y[k]
		}
		yj := s / f.Data[row+j]
		y[j] = yj
		q += yj * yj
		if q > limit {
			return q, false
		}
		row += j + 1
	}
	return q, true
}
