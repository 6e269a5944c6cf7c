package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major square or rectangular matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) Vector {
	mustSameLen(m.Cols, len(v))
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// Mul returns m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	mustSameLen(m.Cols, o.Rows)
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				out.Data[i*out.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// AddScaledIdentity returns m + s·I (m must be square). Used to
// regularise near-singular covariance matrices.
func (m *Matrix) AddScaledIdentity(s float64) *Matrix {
	mustSameLen(m.Rows, m.Cols)
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		out.Data[i*m.Cols+i] += s
	}
	return out
}

// SymmetricMaxAbs returns the largest absolute element, used for
// scale-aware singularity tolerances.
func (m *Matrix) SymmetricMaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cholesky computes the lower-triangular factor L with m = L·Lᵀ for a
// symmetric positive-definite matrix. It returns ErrSingular if m is
// not positive definite (within a scale-aware tolerance).
func (m *Matrix) Cholesky() (*Matrix, error) {
	mustSameLen(m.Rows, m.Cols)
	n := m.Rows
	tol := 1e-12 * math.Max(m.SymmetricMaxAbs(), 1)
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			d += l.At(j, k) * l.At(j, k)
		}
		d = m.At(j, j) - d
		if d <= tol {
			return nil, ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (m.At(i, j)-s)/ljj)
		}
	}
	return l, nil
}

// Inverse returns m⁻¹. For symmetric positive-definite matrices it
// uses the Cholesky factorisation; otherwise it falls back to
// Gauss-Jordan elimination with partial pivoting. ErrSingular is
// returned when no inverse exists within tolerance.
func (m *Matrix) Inverse() (*Matrix, error) {
	mustSameLen(m.Rows, m.Cols)
	if m.isSymmetric() {
		if l, err := m.Cholesky(); err == nil {
			return choleskyInverse(l), nil
		}
	}
	return m.gaussJordanInverse()
}

func (m *Matrix) isSymmetric() bool {
	scale := math.Max(m.SymmetricMaxAbs(), 1)
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-9*scale {
				return false
			}
		}
	}
	return true
}

// choleskyInverse computes (L·Lᵀ)⁻¹ from the lower factor L by
// inverting L and forming L⁻ᵀ·L⁻¹.
func choleskyInverse(l *Matrix) *Matrix {
	n := l.Rows
	// Invert the lower-triangular L by forward substitution.
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		inv.Set(j, j, 1/l.At(j, j))
		for i := j + 1; i < n; i++ {
			var s float64
			for k := j; k < i; k++ {
				s += l.At(i, k) * inv.At(k, j)
			}
			inv.Set(i, j, -s/l.At(i, i))
		}
	}
	// m⁻¹ = L⁻ᵀ · L⁻¹; exploit that inv is lower triangular.
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for k := j; k < n; k++ {
				s += inv.At(k, i) * inv.At(k, j)
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}

func (m *Matrix) gaussJordanInverse() (*Matrix, error) {
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	tol := 1e-12 * math.Max(m.SymmetricMaxAbs(), 1)
	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best <= tol {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}
