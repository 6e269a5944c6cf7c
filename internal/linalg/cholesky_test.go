package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestMahalanobisCholMatchesInverse pins the Cholesky scoring path
// against the inverse-covariance path across random SPD covariances:
// the two must agree to tight relative tolerance, in both the squared
// and plain distances, on points near and far from the mean.
func TestMahalanobisCholMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 16, 32, 80} { // 80 exercises the heap-scratch fallback
		cov := randomSPD(rng, n)
		inv, err := cov.Inverse()
		if err != nil {
			t.Fatalf("n=%d: inverse: %v", n, err)
		}
		fac, err := PackCholesky(cov)
		if err != nil {
			t.Fatalf("n=%d: factor: %v", n, err)
		}
		mean := make(Vector, n)
		for i := range mean {
			mean[i] = 10 * rng.NormFloat64()
		}
		for trial := 0; trial < 25; trial++ {
			x := make(Vector, n)
			scale := math.Pow(10, float64(trial%5)-2) // 1e-2 .. 1e2 offsets
			for i := range x {
				x[i] = mean[i] + scale*rng.NormFloat64()
			}
			want := MahalanobisSq(x, mean, inv)
			got := MahalanobisSqChol(x, mean, fac)
			tol := 1e-8 * math.Max(1, want)
			if math.Abs(got-want) > tol {
				t.Fatalf("n=%d trial %d: squared distance %v via Cholesky, %v via inverse (diff %g)",
					n, trial, got, want, got-want)
			}
			if d := math.Abs(math.Sqrt(got) - Mahalanobis(x, mean, inv)); d > 1e-8*math.Max(1, math.Sqrt(want)) {
				t.Fatalf("n=%d trial %d: distance diff %g", n, trial, d)
			}
			// Bounded at its own result the solve finishes; bounded
			// below it, it stops with a partial sum past the bound.
			if q, done := MahalanobisSqCholWithin(x, mean, fac, got); !done || q != got {
				t.Fatalf("n=%d trial %d: within %v: %v, %v", n, trial, got, q, done)
			}
			if q, done := MahalanobisSqCholWithin(x, mean, fac, got/2); done || q <= got/2 {
				t.Fatalf("n=%d trial %d: within %v: %v, %v", n, trial, got/2, q, done)
			}
		}
		// At the mean both paths must agree on (near) zero.
		if d := MahalanobisSqChol(mean, mean, fac); d != 0 {
			t.Fatalf("n=%d: distance at the mean = %v, want 0", n, d)
		}
	}
}

// TestPackCholeskyLayout pins the packed layout: row j of the lower
// factor starts at offset j(j+1)/2 and carries j+1 entries.
func TestPackCholeskyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cov := randomSPD(rng, 6)
	l, err := cov.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	fac, err := PackCholesky(cov)
	if err != nil {
		t.Fatal(err)
	}
	if fac.N != 6 || len(fac.Data) != 21 {
		t.Fatalf("packed factor N=%d len=%d, want 6/21", fac.N, len(fac.Data))
	}
	for j := 0; j < 6; j++ {
		row := j * (j + 1) / 2
		for i := 0; i <= j; i++ {
			if fac.Data[row+i] != l.At(j, i) {
				t.Fatalf("packed[%d] = %v, want L(%d,%d) = %v", row+i, fac.Data[row+i], j, i, l.At(j, i))
			}
		}
	}
}

// TestPackCholeskySingular verifies the singular covariance surfaces
// ErrSingular instead of a garbage factor.
func TestPackCholeskySingular(t *testing.T) {
	sing := NewMatrix(3, 3) // all-zero: not positive definite
	if _, err := PackCholesky(sing); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}
