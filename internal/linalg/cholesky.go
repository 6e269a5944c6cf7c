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

// Rank1Update makes f the factor of α·L·Lᵀ + β·x·xᵀ in place, for
// α > 0 and β ≥ 0: it scales L by √α, then folds √β·x in by the Givens
// rotations of LINPACK's dchud, in O(N²) and without forming Σ or its
// inverse. A positive update of a positive-definite matrix stays
// positive definite, so it cannot fail. The walk is row by row over
// the packed layout: row i first takes the rotations of the rows above
// it, then defines its own from its diagonal.
func (f *CholFactor) Rank1Update(alpha, beta float64, x Vector) {
	n := f.N
	mustSameLen(len(x), n)
	var cStack, sStack [cholStackDim]float64
	c, s := cStack[:], sStack[:]
	if n > cholStackDim {
		c, s = make([]float64, n), make([]float64, n)
	}
	sa, sb := math.Sqrt(alpha), math.Sqrt(beta)
	row := 0 // offset of packed row i = i(i+1)/2
	for i := 0; i < n; i++ {
		xi := sb * x[i]
		for k := 0; k < i; k++ {
			t := sa * f.Data[row+k]
			f.Data[row+k] = c[k]*t + s[k]*xi
			xi = c[k]*xi - s[k]*t
		}
		d := sa * f.Data[row+i]
		r := math.Hypot(d, xi)
		c[i], s[i] = d/r, xi/r
		f.Data[row+i] = r
		row += i + 1
	}
}
