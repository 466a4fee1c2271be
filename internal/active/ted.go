// Package active implements the paper's advanced active-learning framework:
// transductive experimental design (TED, Algorithm 1), its batch variant
// BTED (Algorithm 2), Bootstrap-guided sampling (BS, Algorithm 3) and
// Bootstrap-guided adaptive optimization (BAO, Algorithm 4).
package active

import (
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/space"
)

// tedWorkspace holds every buffer one TED pass needs, pooled so BTED's B+1
// passes over same-sized batches reuse one ~n²·8-byte Gram allocation (and
// the O(n)/O(m·n) side buffers) instead of allocating fresh ones per batch.
type tedWorkspace struct {
	K     *linalg.Matrix
	norms []float64 // residual squared column norms ‖K_t e_j‖²
	diag  []float64 // residual diagonal (K_t)_jj
	c     []float64 // current residual column K_t e_x
	w     []float64 // K_t c, the rank-1 norm-downdate direction
	hist  []float64 // per-point history dots ut[i]·g, then ut[j]·d
	d     []float64 // d_s = u_s·c, the per-downdate correction coefficients
	g     []float64 // Ut row of the current pick (u_s[best] for all s)
	u     []float64 // m x n flat; row s is the downdate vector u_s
	ut    []float64 // n x m flat transpose: row i is (u_0[i], u_1[i], ...)
	taken []bool
}

var tedPool = sync.Pool{New: func() any { return &tedWorkspace{K: linalg.NewMatrix(0, 0)} }}

func (ws *tedWorkspace) resize(n, m int) {
	grow := func(s []float64, want int) []float64 {
		if cap(s) < want {
			return make([]float64, want)
		}
		return s[:want]
	}
	ws.norms = grow(ws.norms, n)
	ws.diag = grow(ws.diag, n)
	ws.c = grow(ws.c, n)
	ws.w = grow(ws.w, n)
	ws.hist = grow(ws.hist, n)
	ws.d = grow(ws.d, m)
	ws.g = grow(ws.g, m)
	ws.u = grow(ws.u, m*n)
	ws.ut = grow(ws.ut, n*m)
	if cap(ws.taken) < n {
		ws.taken = make([]bool, n)
	} else {
		ws.taken = ws.taken[:n]
		for i := range ws.taken {
			ws.taken[i] = false
		}
	}
}

// TED performs transductive experimental design (Algorithm 1): it greedily
// selects m points whose kernel columns have maximal residual energy,
// deflating the kernel matrix after each pick so later picks are diverse
// with respect to earlier ones. It returns the indices of the selected
// points in pick order. mu is the normalization coefficient of the paper;
// k is the kernel building K_VV.
//
// Points already selected keep a residual column norm of ~0 after the
// rank-1 downdate, so the same index is never picked twice. When m exceeds
// the candidate count, every index is returned.
//
// The implementation is the incremental form of Algorithm 1 (see DESIGN.md
// for the derivation): the Gram matrix K₀ is built once and never written
// again, each pick records its downdate direction u_t = c_t/√(denom_t), and
// the residual column norms and diagonal are downdated in O(n) from
// w = K_t·c_t instead of recomputing them over the full deflated matrix.
// Per pick that is one read-only mat-vec over K₀ (plus O(t·n) corrections
// from the stored u vectors) in place of Algorithm 1's write-back rank-1
// downdate followed by a full column-norm pass — algebraically identical,
// deterministic, and bit-identical for any worker count.
func TED(feats [][]float64, mu float64, m int, k linalg.Kernel) []int {
	return tedWithWorkers(feats, mu, m, k, par.Workers())
}

func tedWithWorkers(feats [][]float64, mu float64, m int, k linalg.Kernel, workers int) []int {
	n := len(feats)
	if n == 0 || m <= 0 {
		return nil
	}
	if m > n {
		m = n
	}
	ws := tedPool.Get().(*tedWorkspace)
	defer tedPool.Put(ws)
	ws.resize(n, m)
	linalg.GramMatrixInto(ws.K, feats, k, workers)
	K, norms, diag, c, w, taken := ws.K, ws.norms, ws.diag, ws.c, ws.w, ws.taken
	// Initial state: exact column norms (the same row-major accumulation as
	// ColNorms2) and the Gram diagonal.
	K.ColNorms2Into(norms)
	for j := 0; j < n; j++ {
		diag[j] = K.At(j, j)
	}

	selected := make([]int, 0, m)
	nd := 0 // downdate vectors recorded in ws.u (picks can skip theirs)
	for t := 0; t < m; t++ {
		best := -1
		bestScore := 0.0
		for j := 0; j < n; j++ {
			if taken[j] {
				continue
			}
			score := norms[j] / (diag[j] + mu)
			if best < 0 || score > bestScore {
				best = j
				bestScore = score
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		taken[best] = true
		if t == m-1 {
			break // the residual state has no further reader
		}
		// Non-PSD "kernels" (e.g. the paper-literal raw-distance matrix)
		// can drive the deflated diagonal non-positive; the downdate is
		// then numerically meaningless, so skip it — the point is already
		// marked taken and cannot be re-selected.
		denom := diag[best] + mu
		if denom <= 1e-12 {
			continue
		}

		// Residual column of the pick: c = K_t e_best, reconstructed from
		// the immutable K₀ row (K₀ is symmetric, so the row IS the column —
		// a contiguous read) minus the stored downdates. The transpose
		// layout ws.ut makes the per-element correction Σ_s u_s[i]·u_s[best]
		// a contiguous 8-lane dot over row i's downdate history, and all n
		// of them are one strided mat-vec over ws.ut.
		copy(c, K.Row(best))
		if nd > 0 {
			g := ws.g[:nd]
			copy(g, ws.ut[best*m:best*m+nd])
			linalg.LaneDotRows(ws.hist, ws.ut, m, g, nil)
			for i, h := range ws.hist {
				c[i] -= h
			}
		}

		// w = K_t c = K₀c − Σ_s u_s (u_s·c): one masked read-only mat-vec
		// over K₀ (rows of already-taken points are dead — their norms are
		// never read again) plus O(t·n) corrections. The coefficients
		// d_s = u_s·c are a mat-vec over the row-major copy of the
		// downdates; the per-row corrections Σ_s u_s[j]·d_s one over the
		// transpose, in the downdate pass below.
		K.MulVecMaskedInto(w, c, taken, workers)
		d := ws.d[:nd]
		linalg.LaneDotRows(d, ws.u, n, c, nil)
		S := linalg.LaneDot(c, c)

		// Record u_t = c/√denom (so K_{t+1} = K_t − u_t u_tᵀ) in both
		// layouts. The transpose write lands in column nd, past the [:nd]
		// prefixes the history mat-vec below reads.
		scale := 1 / math.Sqrt(denom)
		urow := ws.u[nd*n : nd*n+n]
		for i, v := range c {
			uv := v * scale
			urow[i] = uv
			ws.ut[i*m+nd] = uv
		}

		// O(n·(1+nd)) downdate of the residual norms and diagonal, after
		// one masked strided mat-vec for the history dots Σ_s u_s[j]·d_s:
		//   w_j          −= Σ_s u_s[j]·d_s   (finishing w = K_t c)
		//   ‖K_{t+1} e_j‖² = ‖K_t e_j‖² − (c_j/denom)·(2 w_j − (c_j/denom)·S)
		//   (K_{t+1})_jj   = (K_t)_jj − c_j·(c_j/denom)
		linalg.LaneDotRows(ws.hist, ws.ut, m, d, taken)
		for j := 0; j < n; j++ {
			if taken[j] {
				continue
			}
			wj := w[j] - ws.hist[j]
			a := c[j] / denom
			norms[j] -= a * (2*wj - a*S)
			diag[j] -= c[j] * a
		}
		nd++
	}
	return selected
}

// FeatureView selects how configurations are embedded for TED distances.
type FeatureView int

// Feature views for TED.
const (
	// ViewKnobValues embeds configs as standardized log-scaled knob values
	// (the default; matches the geometry the cost model sees).
	ViewKnobValues FeatureView = iota
	// ViewKnobIndices embeds configs as raw knob option indices (the
	// paper's literal Euclidean-distance space).
	ViewKnobIndices
)

// Embed maps configs into the chosen feature view, standardizing each
// dimension to zero mean and unit variance over the batch so no knob
// dominates the kernel.
func Embed(cfgs []space.Config, view FeatureView) [][]float64 {
	if len(cfgs) == 0 {
		return nil
	}
	raw := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		if view == ViewKnobIndices {
			raw[i] = c.IndexVec()
		} else {
			raw[i] = c.Features()
		}
	}
	standardize(raw)
	return raw
}

// standardize normalizes columns in place to mean 0 / stddev 1 (constant
// columns become all-zero). All three passes walk the row-major [][]float64
// in row order — each column's accumulator still receives its terms in
// ascending row order, so the results are bit-identical to the textbook
// per-column loops while touching each cache line once per pass instead of
// once per dimension.
func standardize(X [][]float64) {
	if len(X) == 0 {
		return
	}
	d := len(X[0])
	n := float64(len(X))
	mean := make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	varsum := make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			dev := v - mean[j]
			varsum[j] += dev * dev
		}
	}
	scale := make([]float64, d)
	for j, v := range varsum {
		if v == 0 {
			scale[j] = 0 // constant column: collapse to exactly zero
		} else {
			scale[j] = 1 / math.Sqrt(v/n)
		}
	}
	for _, row := range X {
		for j, v := range row {
			row[j] = (v - mean[j]) * scale[j]
		}
	}
}

// TEDConfigs runs TED over a batch of configurations with the given view
// and kernel, returning the selected configs in pick order.
func TEDConfigs(cfgs []space.Config, mu float64, m int, view FeatureView, k linalg.Kernel) []space.Config {
	idx := TED(Embed(cfgs, view), mu, m, k)
	out := make([]space.Config, len(idx))
	for i, j := range idx {
		out[i] = cfgs[j]
	}
	return out
}
