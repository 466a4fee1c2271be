package linalg

import (
	"errors"
	"math"

	"repro/internal/par"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ, enabling O(n²) linear solves after an O(n³)
// factorization. It backs the Gaussian-process evaluation function.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full n x n storage)
}

// ErrNotPositiveDefinite is returned when a pivot is non-positive; callers
// typically retry with a larger diagonal jitter.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// cholParallelFlops is the per-column flop count (remaining rows times
// column index) below which the row update stays on the calling goroutine:
// dispatching the pool costs a few microseconds, which small columns cannot
// amortize.
const cholParallelFlops = 1 << 15

// cholBlockRows is the number of rows a parallel column-update work item
// owns. Fixed (never derived from the worker count) so the decomposition is
// identical for any workers value; the values themselves are independent
// per row, so this only shapes scheduling, not results.
const cholBlockRows = 32

// NewCholesky factorizes the symmetric matrix a (only the lower triangle is
// read) with `jitter` added to the diagonal for numerical stabilization,
// using the shared worker pool for the per-column row updates.
func NewCholesky(a *Matrix, jitter float64) (*Cholesky, error) {
	return NewCholeskyParallel(a, jitter, par.Workers())
}

// NewCholeskyParallel is NewCholesky with an explicit worker count.
//
// The factorization is left-looking and proceeds column by column: the
// diagonal pivot l_jj first, then every l_ij (i > j) of the column. Each
// element is the strict ascending-k accumulation
//
//	l_ij = (a_ij - Σ_{k<j} l_ik·l_jk) / l_jj
//
// of the textbook serial algorithm — one accumulator, same order — so every
// element carries bits identical to the serial reference for any workers
// value. Within a column the row elements are mutually independent, which
// is where the parallelism (and, via four-row unrolling, the instruction-
// level parallelism) comes from. Failure behaviour matches the serial
// reference exactly: the first non-positive pivot in column order reports
// ErrNotPositiveDefinite.
func NewCholeskyParallel(a *Matrix, jitter float64, workers int) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	n := a.Rows
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		// Pivot: strict ascending-k accumulation, exactly the serial order.
		sum := a.At(j, j) + jitter
		rowJ := l[j*n : j*n+j]
		for _, v := range rowJ {
			sum -= v * v
		}
		if sum <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(sum)
		l[j*n+j] = ljj

		rows := n - (j + 1)
		if rows <= 0 {
			continue
		}
		if workers <= 1 || rows*j < cholParallelFlops {
			cholColumnRows(a, l, n, j, ljj, j+1, n)
			continue
		}
		blocks := (rows + cholBlockRows - 1) / cholBlockRows
		par.For(blocks, workers, func(b int) {
			lo := j + 1 + b*cholBlockRows
			hi := lo + cholBlockRows
			if hi > n {
				hi = n
			}
			cholColumnRows(a, l, n, j, ljj, lo, hi)
		})
	}
	return &Cholesky{n: n, l: l}, nil
}

// cholColumnRows computes l_ij for i in [lo, hi) of column j, four rows per
// pass so the l_jk loads are amortized across four independent accumulator
// chains. Each accumulator runs in strict ascending-k order, so every
// element is bit-identical to the one-row-at-a-time serial loop.
func cholColumnRows(a *Matrix, l []float64, n, j int, ljj float64, lo, hi int) {
	rowJ := l[j*n : j*n+j]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := l[i*n : i*n+j][:len(rowJ)]
		r1 := l[(i+1)*n : (i+1)*n+j][:len(rowJ)]
		r2 := l[(i+2)*n : (i+2)*n+j][:len(rowJ)]
		r3 := l[(i+3)*n : (i+3)*n+j][:len(rowJ)]
		s0 := a.At(i, j)
		s1 := a.At(i+1, j)
		s2 := a.At(i+2, j)
		s3 := a.At(i+3, j)
		for k, v := range rowJ {
			s0 -= r0[k] * v
			s1 -= r1[k] * v
			s2 -= r2[k] * v
			s3 -= r3[k] * v
		}
		l[i*n+j] = s0 / ljj
		l[(i+1)*n+j] = s1 / ljj
		l[(i+2)*n+j] = s2 / ljj
		l[(i+3)*n+j] = s3 / ljj
	}
	for ; i < hi; i++ {
		sum := a.At(i, j)
		ri := l[i*n : i*n+j]
		for k, v := range rowJ {
			sum -= ri[k] * v
		}
		l[i*n+j] = sum / ljj
	}
}

// Solve returns x with (L Lᵀ) x = b, overwriting nothing.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		//lint:ignore panicpath kernel invariant: dimension mismatch is a programmer error, panics like gonum/mat
		panic("linalg: Cholesky.Solve dimension mismatch")
	}
	n := c.n
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.l[i*n+k] * y[k]
		}
		y[i] = sum / c.l[i*n+i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.l[k*n+i] * x[k]
		}
		x[i] = sum / c.l[i*n+i]
	}
	return x
}

// LogDet returns log det(A) = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }
