// Package linalg provides the small dense linear-algebra kernels needed by
// transductive experimental design: Gram/distance matrices, column norms and
// symmetric rank-1 downdates. It is not a general matrix library; it holds
// exactly what the active-learning core needs, implemented with flat
// row-major storage for cache friendliness.
package linalg

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		//lint:ignore panicpath kernel invariant: negative dims are a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: negative matrix dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Reshape resizes m to r x c, reusing the backing array when its capacity
// allows and allocating otherwise. Contents are unspecified after the call
// (hot paths that reuse pooled matrices overwrite every element anyway).
func (m *Matrix) Reshape(r, c int) {
	if r < 0 || c < 0 {
		//lint:ignore panicpath kernel invariant: negative dims are a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: negative matrix dims %dx%d", r, c))
	}
	if need := r * c; cap(m.Data) >= need {
		m.Data = m.Data[:need]
	} else {
		m.Data = make([]float64, need)
	}
	m.Rows, m.Cols = r, c
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ColNorm2 returns the squared Euclidean norm of column j.
func (m *Matrix) ColNorm2(j int) float64 {
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		v := m.Data[i*m.Cols+j]
		s += v * v
	}
	return s
}

// ColNorms2 returns the squared Euclidean norms of all columns. It walks the
// matrix row-major once (packed SSE2 on amd64); each column's accumulator
// receives its terms in ascending row order, exactly like the textbook
// per-column loop.
func (m *Matrix) ColNorms2() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		addSquares(out, m.Row(i))
	}
	return out
}

// Rank1Downdate applies K <- K - K_x K_x^T / denom in place, where K_x is
// column x of the current K. This is line 5 of the paper's Algorithm 1.
// It panics if the matrix is not square or denom is not positive.
func (m *Matrix) Rank1Downdate(x int, denom float64) {
	if m.Rows != m.Cols {
		//lint:ignore panicpath kernel invariant: shape misuse is a programmer error, panics like gonum/mat
		panic("linalg: Rank1Downdate requires a square matrix")
	}
	if denom <= 0 {
		//lint:ignore panicpath kernel invariant: a non-positive denominator means the caller broke the SPD precondition
		panic("linalg: Rank1Downdate requires positive denominator")
	}
	n := m.Rows
	col := make([]float64, n)
	for i := 0; i < n; i++ {
		col[i] = m.Data[i*n+x]
	}
	inv := 1.0 / denom
	for i := 0; i < n; i++ {
		ci := col[i] * inv
		if ci == 0 {
			continue
		}
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j] -= ci * col[j]
		}
	}
}

// Dist2 returns the squared Euclidean distance between vectors a and b,
// which must have equal length.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		//lint:ignore panicpath kernel invariant: length mismatch is a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: Dist2 length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(Dist2(a, b)) }

// dist2Lanes is the 4-lane squared Euclidean distance used by the RBF Gram
// fast path. Lane r accumulates the terms at indices ≡ r (mod 4) in
// ascending order, the lanes fold as ((d0+d2)+(d1+d3)), and the tail is
// added serially — four independent chains instead of Dist2's single
// latency-bound accumulator. The split never depends on the caller, so the
// result is deterministic. Lengths must match (gram callers guarantee it).
func dist2Lanes(a, b []float64) float64 {
	var d0, d1, d2, d3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		e0 := a[i] - b[i]
		e1 := a[i+1] - b[i+1]
		e2 := a[i+2] - b[i+2]
		e3 := a[i+3] - b[i+3]
		d0 += e0 * e0
		d1 += e1 * e1
		d2 += e2 * e2
		d3 += e3 * e3
	}
	t := (d0 + d2) + (d1 + d3)
	for ; i < len(a); i++ {
		e := a[i] - b[i]
		t += e * e
	}
	return t
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		//lint:ignore panicpath kernel invariant: length mismatch is a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Kernel computes a pairwise similarity between two feature vectors. TED
// builds its K matrix from one of these.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel in logs and records.
	Name() string
}

// RBFKernel is exp(-gamma * ||a-b||^2), the usual smooth choice for TED.
type RBFKernel struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 { return math.Exp(-k.Gamma * Dist2(a, b)) }

// Name implements Kernel.
func (k RBFKernel) Name() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// LinearKernel is the plain inner product, the kernel of the original TED
// formulation (Yu, Bi, Tresp 2006).
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 { return Dot(a, b) }

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// DistanceKernel uses the raw Euclidean distance as the matrix entry,
// matching the paper's literal statement that "k(v1, v2) ... is computed as
// Euclidean distance".
type DistanceKernel struct{}

// Eval implements Kernel.
func (DistanceKernel) Eval(a, b []float64) float64 { return Dist(a, b) }

// Name implements Kernel.
func (DistanceKernel) Name() string { return "euclidean" }

// gramParallelThreshold is the matrix order below which GramMatrix stays
// serial. Measured with BenchmarkGramMatrixWorkers (RBF build, serial vs 2
// workers, medians of 7 runs on a 2-CPU Xeon) after the AVX2+FMA vector
// kernel made each entry ~4x cheaper: at n=128 the pool costs +40% (d=8,
// 68 → 95 µs) and +28% (d=20, 94 → 120 µs); at n=192 it is even (d=8,
// 151 vs 149 µs) or ahead (d=20, 203 → 185 µs); at n=256 it wins 5% (d=8)
// and 21% (d=20). 192 is the first sweep point where the dispatch overhead
// is inside run-to-run noise. Re-run the sweep when the gram fast path
// changes materially.
const gramParallelThreshold = 192

// GramMatrix builds the |V| x |V| kernel matrix over the given vectors.
// The result is symmetric; only the upper triangle is computed directly.
// Large matrices (the TED/BTED batches) are computed with a row-block
// worker pool; see GramMatrixParallel.
func GramMatrix(vecs [][]float64, k Kernel) *Matrix {
	workers := 1
	if len(vecs) >= gramParallelThreshold {
		workers = par.Workers()
	}
	return GramMatrixParallel(vecs, k, workers)
}

// GramMatrixParallel is GramMatrix with an explicit worker count. Rows of
// the upper triangle are distributed over the pool; each (i, j) pair is
// evaluated exactly once and written to its two mirror slots by exactly one
// worker, so the result is bit-identical for every workers value. The
// kernel must be safe for concurrent Eval calls (all in-repo kernels are
// stateless value types).
func GramMatrixParallel(vecs [][]float64, k Kernel, workers int) *Matrix {
	m := NewMatrix(len(vecs), len(vecs))
	gramInto(m, vecs, k, workers)
	return m
}

// GramMatrixInto is GramMatrixParallel writing into dst (reshaped to
// n x n, backing storage reused when possible), so hot loops — BTED runs
// B+1 TED passes over same-sized batches — can reuse one pooled matrix
// instead of allocating ~n²·8 bytes per pass. Every element is written, and
// each carries bits identical to GramMatrix's for any workers value.
func GramMatrixInto(dst *Matrix, vecs [][]float64, k Kernel, workers int) {
	dst.Reshape(len(vecs), len(vecs))
	gramInto(dst, vecs, k, workers)
}

func gramInto(m *Matrix, vecs [][]float64, k Kernel, workers int) {
	n := len(vecs)
	// Fast path for the RBF kernel (the default and by far the hottest):
	// devirtualized, with the 4-lane squared distance, and on amd64 with
	// AVX2+FMA the vector kernel of gramRowRBF. The lane split is a fixed
	// property of this path — never data- or worker-dependent — so entries
	// are deterministic and bit-identical for every workers value (they may
	// differ from serial RBFKernel.Eval in the last ulp, which no caller
	// pins).
	if rbf, ok := k.(RBFKernel); ok {
		var xt []float64
		if gramFMA() {
			buf := transposeFeatures(vecs)
			if buf != nil {
				defer gramScratch.Put(buf)
				xt = *buf
			}
		}
		par.For(n, workers, func(i int) {
			gramRowRBF(m, vecs, xt, i, rbf.Gamma)
		})
		// The lower triangle in a second pass over bands of 8 rows, each
		// filled from one 8-entry (cache-line) segment per upper row, so
		// the reads stream row by row and no two workers write
		// neighbouring entries. Mirroring each upper row as it was
		// finished would write one entry of every lower row per step, and
		// with several workers the same lines at once.
		par.For((n+7)/8, workers, func(b int) {
			j0, j1 := 8*b, min(n, 8*b+8)
			for i := 0; i < j1-1; i++ {
				upper := m.Data[i*n : i*n+j1]
				for j := max(j0, i+1); j < j1; j++ {
					m.Data[j*n+i] = upper[j]
				}
			}
		})
		return
	}
	par.For(n, workers, func(i int) {
		vi := vecs[i]
		for j := i; j < n; j++ {
			v := k.Eval(vi, vecs[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	})
}

// gramScratch pools the transposed feature blocks of the RBF vector
// kernel, so BTED's back-to-back builds reuse one buffer.
var gramScratch = sync.Pool{New: func() any { return new([]float64) }}

// transposeFeatures copies vecs into a pooled d×n block, xt[k*n+j] =
// vecs[j][k], the layout in which the vector kernel reads four columns of
// one dimension with one load. It returns nil (no kernel) for ragged or
// zero-dimensional input.
func transposeFeatures(vecs [][]float64) *[]float64 {
	n := len(vecs)
	if n == 0 || len(vecs[0]) == 0 {
		return nil
	}
	d := len(vecs[0])
	for _, v := range vecs {
		if len(v) != d {
			return nil
		}
	}
	buf := gramScratch.Get().(*[]float64)
	if cap(*buf) < d*n {
		*buf = make([]float64, d*n)
	}
	xt := (*buf)[:d*n]
	for j, v := range vecs {
		for k, f := range v {
			xt[k*n+j] = f
		}
	}
	*buf = xt
	return buf
}

// gramRowRBF writes the upper-triangle part of row i, entries (i, j) =
// exp(-gamma·dist2Lanes(v_i, v_j)) for j >= i. With a transposed block xt
// (vector kernel enabled) the columns from the first multiple of 4 up to
// the last full 4-block go through gramRowFMA, whose lanes repeat
// dist2Lanes and math.Exp bit for bit; the columns before and after, and
// any block with an exponent outside the kernel's window, take the scalar
// code. Every entry is therefore the same bits with or without the kernel.
func gramRowRBF(m *Matrix, vecs [][]float64, xt []float64, i int, gamma float64) {
	n := len(vecs)
	row := m.Data[i*n : i*n+n]
	vi := vecs[i]
	j := i
	if xt != nil {
		for first := min(n, (i+3)&^3); j < first; j++ {
			row[j] = math.Exp(-gamma * dist2Lanes(vi, vecs[j]))
		}
		jend := j + (n-j)&^3
		for j < jend {
			j = gramRowFMA(row, vi, xt, n, j, jend, -gamma)
			if j < jend {
				// A lane left the window: row[j:j+4] holds the exponents.
				for e := j; e < j+4; e++ {
					row[e] = math.Exp(row[e])
				}
				j += 4
			}
		}
	}
	for ; j < n; j++ {
		row[j] = math.Exp(-gamma * dist2Lanes(vi, vecs[j]))
	}
}
