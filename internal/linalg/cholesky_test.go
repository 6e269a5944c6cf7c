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

// TestRank1UpdateMatchesRefactor pins Rank1Update against factoring
// α·Σ + β·x·xᵀ afresh, including β = 0 (a pure scale) and a dimension
// past the stack buffer.
func TestRank1UpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 32, 80} {
		for _, ab := range [][2]float64{{0.9, 0.1}, {1, 0}, {0.5, 3}} {
			alpha, beta := ab[0], ab[1]
			cov := randomSPD(rng, n)
			x := make(Vector, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			f, err := PackCholesky(cov)
			if err != nil {
				t.Fatal(err)
			}
			f.Rank1Update(alpha, beta, x)
			next := cov.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					next.Data[i*n+j] = alpha*cov.Data[i*n+j] + beta*x[i]*x[j]
				}
			}
			want, err := PackCholesky(next)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Data {
				if d := math.Abs(f.Data[k] - want.Data[k]); d > 1e-10*math.Max(1, math.Abs(want.Data[k])) {
					t.Fatalf("n=%d α=%g β=%g: packed entry %d is %v, refactored %v",
						n, alpha, beta, k, f.Data[k], want.Data[k])
				}
			}
		}
	}
}

// TestRank1UpdateAllocFree keeps Algorithm 4's per-sample factor
// update off the heap at edge-set dimensions.
func TestRank1UpdateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f, err := PackCholesky(randomSPD(rng, 32))
	if err != nil {
		t.Fatal(err)
	}
	x := make(Vector, 32)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(50, func() { f.Rank1Update(0.99, 0.01, x) }); allocs != 0 {
		t.Fatalf("Rank1Update allocates %.0f times per call, want 0", allocs)
	}
}
