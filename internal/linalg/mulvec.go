package linalg

import (
	"fmt"

	"repro/internal/par"
)

// mulVecBlockRows is the number of matrix rows a MulVecInto work item
// processes. The value is a fixed constant (never derived from the worker
// count) so the block decomposition — and therefore every rounding decision —
// is identical for any workers value.
const mulVecBlockRows = 64

// mulVecRows computes dst[i] = row_i · x for i in [lo, hi), skipping
// masked rows, where row i is data[i*stride : i*stride+len(x)]. Unmasked
// rows go four at a time through laneDot4, which shares the loads of x;
// each dst[i] is still the canonical 8-lane dot product of row i with x
// (see laneDotGeneric), so every element carries the same bits regardless
// of the grouping or of which path — serial, blocked-parallel, assembly or
// portable fallback — produced it.
func mulVecRows(data []float64, stride int, x, dst []float64, lo, hi int, skip []bool) {
	var rows [4]int
	var out [4]float64
	k := 0
	for i := lo; i < hi; i++ {
		if skip != nil && skip[i] {
			continue
		}
		rows[k] = i
		k++
		if k == 4 {
			laneDot4(data[rows[0]*stride:], data[rows[1]*stride:], data[rows[2]*stride:], data[rows[3]*stride:], x, &out)
			for r, row := range rows {
				dst[row] = out[r]
			}
			k = 0
		}
	}
	for _, i := range rows[:k] {
		dst[i] = laneDot(data[i*stride:i*stride+len(x)], x)
	}
}

// LaneDotRows computes dst[i] = LaneDot(data[i*stride : i*stride+len(x)],
// x) for every i with skip[i] false (a nil skip computes every row); the
// other dst entries are left untouched. It is the strided, serial form of
// MulVecMaskedInto, for matrices stored as the first len(x) entries of
// stride-long rows: TED's per-pick corrections over its growing downdate
// history. Every dst[i] is bit-identical to the LaneDot call it replaces.
func LaneDotRows(dst, data []float64, stride int, x []float64, skip []bool) {
	n := len(dst)
	if stride < len(x) || (n > 0 && (n-1)*stride+len(x) > len(data)) || (skip != nil && len(skip) != n) {
		//lint:ignore panicpath kernel invariant: dimension mismatch is a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: LaneDotRows dimension mismatch: %d rows of stride %d over %d elements, len(x)=%d", n, stride, len(data), len(x)))
	}
	mulVecRows(data, stride, x, dst, 0, n, skip)
}

// MulVecInto computes dst = M·x, distributing fixed-size row blocks over at
// most workers goroutines (workers <= 0 means par.Workers()). Each dst[i] is
// the canonical 8-lane dot product of row i with x, written only by the
// worker owning its block, so the result is bit-identical for every worker
// count and matches the serial laneDot reference exactly.
func (m *Matrix) MulVecInto(dst, x []float64, workers int) {
	m.mulVecMasked(dst, x, nil, workers)
}

// MulVecMaskedInto is MulVecInto except rows i with skip[i] true are not
// computed and dst[i] is left untouched. TED uses this to avoid the dead
// per-pick dot products of already-selected rows. A nil skip computes every
// row.
func (m *Matrix) MulVecMaskedInto(dst, x []float64, skip []bool, workers int) {
	m.mulVecMasked(dst, x, skip, workers)
}

func (m *Matrix) mulVecMasked(dst, x []float64, skip []bool, workers int) {
	if len(x) != m.Cols || len(dst) != m.Rows || (skip != nil && len(skip) != m.Rows) {
		//lint:ignore panicpath kernel invariant: dimension mismatch is a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: MulVecInto dimension mismatch: %dx%d matrix, len(x)=%d, len(dst)=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	blocks := (m.Rows + mulVecBlockRows - 1) / mulVecBlockRows
	if blocks <= 1 || workers <= 1 {
		mulVecRows(m.Data, m.Cols, x, dst, 0, m.Rows, skip)
		return
	}
	par.For(blocks, workers, func(b int) {
		lo := b * mulVecBlockRows
		hi := lo + mulVecBlockRows
		if hi > m.Rows {
			hi = m.Rows
		}
		mulVecRows(m.Data, m.Cols, x, dst, lo, hi, skip)
	})
}

// ColNorms2Into is ColNorms2 writing into a caller-provided slice, so hot
// paths can reuse a pooled buffer. The accumulation order (rows ascending,
// one running sum per column) is identical to ColNorms2, bit for bit.
func (m *Matrix) ColNorms2Into(out []float64) {
	if len(out) != m.Cols {
		//lint:ignore panicpath kernel invariant: dimension mismatch is a programmer error, panics like gonum/mat
		panic(fmt.Sprintf("linalg: ColNorms2Into needs len(out)=%d, got %d", m.Cols, len(out)))
	}
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		addSquares(out, m.Row(i))
	}
}
