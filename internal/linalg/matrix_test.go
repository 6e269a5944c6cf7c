package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPD builds a random symmetric positive-definite matrix
// A = BᵀB + εI.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Transpose().Mul(b).AddScaledIdentity(0.5)
	return a
}

func maxAbsDiff(a, b *Matrix) float64 {
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	got := m.MulVec(Vector{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulAssociatesWithIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomSPD(rng, 4)
	if d := maxAbsDiff(m.Mul(Identity(4)), m); d > 1e-12 {
		t.Fatalf("M·I != M (diff %g)", d)
	}
	if d := maxAbsDiff(Identity(4).Mul(m), m); d > 1e-12 {
		t.Fatalf("I·M != M (diff %g)", d)
	}
}

func TestTranspose(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("shape %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(0, 1) != 4 || mt.At(2, 0) != 3 {
		t.Fatalf("Transpose wrong: %v", mt)
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		l, err := a.Cholesky()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(l.Mul(l.Transpose()), a); d > 1e-8 {
			t.Fatalf("trial %d: LLᵀ differs from A by %g", trial, d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, −1
	if _, err := a.Cholesky(); !errors.Is(err, ErrSingular) {
		t.Fatalf("indefinite matrix: err = %v", err)
	}
}

func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(16)
		a := randomSPD(rng, n)
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(a.Mul(inv), Identity(n)); d > 1e-6 {
			t.Fatalf("trial %d: A·A⁻¹ differs from I by %g", trial, d)
		}
	}
}

func TestInverseNonSymmetric(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := &Matrix{Rows: 2, Cols: 2, Data: []float64{-2, 1, 1.5, -0.5}}
	if d := maxAbsDiff(inv, want); d > 1e-12 {
		t.Fatalf("inverse = %v", inv)
	}
}

func TestInverseSingular(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: err = %v", err)
	}
	zero := NewMatrix(3, 3)
	if _, err := zero.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: err = %v", err)
	}
}

func TestInverseRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{0, 1, 1, 0}}
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(a.Mul(inv), Identity(2)); d > 1e-12 {
		t.Fatalf("permutation inverse wrong by %g", d)
	}
}
