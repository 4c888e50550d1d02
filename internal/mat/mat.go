// Package mat implements the dense linear algebra used by the perception and
// control kernels: EKF-SLAM's covariance updates, ICP's cross-covariance and
// rigid-transform estimation, MPC's quadratic cost evaluation, and the
// Gaussian process regression behind Bayesian optimization.
//
// Matrices are small (the paper notes EKF matrices are "proportionate to the
// number of measurement types" and fit in cache), so the implementation
// favours simple cache-friendly row-major loops over blocked algorithms.
// There are no external dependencies; everything is written against the Go
// standard library.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix with the given shape. It panics on non-positive
// dimensions.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows with empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: FromRows with ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears every element of m in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom overwrites m with src. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	checkSameShape("CopyFrom", m, src)
	copy(m.Data, src.Data)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% 10.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Mul returns the matrix product a*b. It panics on shape mismatch.
func Mul(a, b *Matrix) *Matrix {
	return MulInto(New(a.Rows, b.Cols), a, b)
}

// MulInto computes dst = a*b in place and returns dst. dst must have shape
// a.Rows×b.Cols and must not alias a or b; its previous contents are
// discarded. It is the allocation-free hot-path form of Mul.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) []float64 {
	return MulVecInto(make([]float64, a.Rows), a, x)
}

// MulVecInto computes dst = a*x in place and returns dst. dst must have
// length a.Rows and must not alias x.
func MulVecInto(dst []float64, a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: MulVec shape mismatch")
	}
	if len(dst) != a.Rows {
		panic("mat: MulVecInto dst length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	return AddInto(New(a.Rows, a.Cols), a, b)
}

// AddInto computes dst = a + b in place and returns dst. dst may alias a
// or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	checkSameShape("AddInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	return SubInto(New(a.Rows, a.Cols), a, b)
}

// SubInto computes dst = a - b in place and returns dst. dst may alias a
// or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	checkSameShape("SubInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Scale returns s*a.
func Scale(s float64, a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = s * a.Data[i]
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	return TransposeInto(New(a.Cols, a.Rows), a)
}

// TransposeInto computes dst = aᵀ in place and returns dst. dst must have
// shape a.Cols×a.Rows and must not alias a.
func TransposeInto(dst, a *Matrix) *Matrix {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("mat: TransposeInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Data[j*dst.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return dst
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// LU holds an LU factorization with partial pivoting: P*A = L*U. A zero LU
// is a valid empty workspace: Refactor sizes it on first use and reuses the
// buffers on every subsequent call with the same dimension, which keeps
// repeated small solves (the EKF's per-observation 2×2 innovation inverse)
// allocation-free after warmup.
type LU struct {
	lu      *Matrix
	pivot   []int
	scratch []float64 // unit-vector / column scratch for InverseInto
	sign    float64   // +1 or -1 from row swaps; 0 if singular
}

// NewLU returns an empty LU workspace pre-sized for n×n systems.
func NewLU(n int) *LU {
	if n <= 0 {
		panic("mat: NewLU with non-positive size")
	}
	return &LU{lu: New(n, n), pivot: make([]int, n), scratch: make([]float64, 2*n)}
}

// Factor computes the LU factorization of a square matrix. A singular matrix
// yields a factorization whose Det is 0 and whose Solve returns an error.
func Factor(a *Matrix) *LU {
	f := &LU{}
	f.Refactor(a)
	return f
}

// Refactor computes the factorization of a into f's workspace. When a has
// the same dimension as the previous factorization the call performs no
// allocation; otherwise the workspace is (re)sized.
func (f *LU) Refactor(a *Matrix) {
	if a.Rows != a.Cols {
		panic("mat: Factor requires a square matrix")
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu = New(n, n)
		f.pivot = make([]int, n)
		f.scratch = make([]float64, 2*n)
	}
	copy(f.lu.Data, a.Data)
	f.sign = 1
	lu := f.lu.Data
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in this column at or below the diagonal.
		p := col
		max := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > max {
				max, p = v, r
			}
		}
		if max == 0 {
			f.sign = 0
			return
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[col*n+j] = lu[col*n+j], lu[p*n+j]
			}
			f.pivot[p], f.pivot[col] = f.pivot[col], f.pivot[p]
			f.sign = -f.sign
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			m := lu[r*n+col] * inv
			lu[r*n+col] = m
			if m == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu[r*n+j] -= m * lu[col*n+j]
			}
		}
	}
}

// Singular reports whether the factored matrix was detected as singular.
func (f *LU) Singular() bool { return f.sign == 0 }

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	if f.sign == 0 {
		return 0
	}
	n := f.lu.Rows
	d := f.sign
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// Solve solves A*x = b for x. It returns an error if A is singular.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.Rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A*x = b into dst without allocating. dst must have length
// n and must not alias b. It returns an error if A is singular.
func (f *LU) SolveInto(dst, b []float64) error {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic("mat: Solve dimension mismatch")
	}
	if f.sign == 0 {
		return fmt.Errorf("mat: matrix is singular")
	}
	lu := f.lu.Data
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += lu[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += lu[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / lu[i*n+i]
	}
	return nil
}

// InverseInto writes A⁻¹ into dst (n×n) using the workspace's scratch
// buffers, without allocating. It returns an error if A is singular.
func (f *LU) InverseInto(dst *Matrix) error {
	n := f.lu.Rows
	if dst.Rows != n || dst.Cols != n {
		panic("mat: InverseInto dimension mismatch")
	}
	if f.sign == 0 {
		return fmt.Errorf("mat: matrix is singular")
	}
	if len(f.scratch) < 2*n {
		f.scratch = make([]float64, 2*n)
	}
	e, col := f.scratch[:n], f.scratch[n:2*n]
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		if err := f.SolveInto(col, e); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst.Data[i*n+j] = col[i]
		}
	}
	return nil
}

// Inverse returns A⁻¹, or an error if A is singular.
func Inverse(a *Matrix) (*Matrix, error) {
	f := Factor(a)
	if f.Singular() {
		return nil, fmt.Errorf("mat: matrix is singular")
	}
	out := New(a.Rows, a.Rows)
	if err := f.InverseInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Solve solves A*x = b directly (factor + solve).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	return Factor(a).Solve(b)
}

// Det returns the determinant of a square matrix.
func Det(a *Matrix) float64 { return Factor(a).Det() }

// Cholesky computes the lower-triangular L with A = L*Lᵀ for a symmetric
// positive-definite matrix. It returns an error if A is not positive
// definite (within floating-point tolerance).
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("mat: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("mat: matrix is not positive definite (pivot %d = %g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholSolve solves A*x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: CholSolve dimension mismatch")
	}
	// Solve L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	// Solve Lᵀ*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// QuadForm returns xᵀ*A*x.
func QuadForm(a *Matrix, x []float64) float64 {
	ax := MulVec(a, x)
	var s float64
	for i, v := range x {
		s += v * ax[i]
	}
	return s
}

// SymEigen computes the eigen-decomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues and a matrix whose columns
// are the corresponding orthonormal eigenvectors. The input must be symmetric;
// only its lower triangle is trusted.
func SymEigen(a *Matrix) (vals []float64, vecs *Matrix) {
	if a.Rows != a.Cols {
		panic("mat: SymEigen requires a square matrix")
	}
	n := a.Rows
	s := a.Clone()
	v := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.At(i, j) * s.At(i, j)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// Apply the rotation G(p,q,θ) on both sides: S ← GᵀSG.
				for k := 0; k < n; k++ {
					skp, skq := s.At(k, p), s.At(k, q)
					s.Set(k, p, c*skp-sn*skq)
					s.Set(k, q, sn*skp+c*skq)
				}
				for k := 0; k < n; k++ {
					spk, sqk := s.At(p, k), s.At(q, k)
					s.Set(p, k, c*spk-sn*sqk)
					s.Set(q, k, sn*spk+c*sqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-sn*vkq)
					v.Set(k, q, sn*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = s.At(i, i)
	}
	return vals, v
}

// MaxEigenVector returns the eigenvector associated with the largest
// eigenvalue of a symmetric matrix. It is the core of Horn's quaternion
// method for rigid registration in the scene-reconstruction kernel.
func MaxEigenVector(a *Matrix) []float64 {
	vals, vecs := SymEigen(a)
	best := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[best] {
			best = i
		}
	}
	out := make([]float64, a.Rows)
	for i := range out {
		out[i] = vecs.At(i, best)
	}
	return out
}
