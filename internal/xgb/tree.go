package xgb

import (
	"math"
	"sort"

	"repro/internal/par"
)

// xgbRowBlock is the fixed row-block size of the parallel binning pass. Fixed (never derived from the worker count) so
// the decomposition is identical for any workers value; the per-row results
// are independent, so blocking only shapes scheduling, not bits.
const xgbRowBlock = 256

// xgbParallelMinWork is the approximate work-item count (rows for the
// row binning, rows x features for split search) below which a
// stage stays on the calling goroutine: pool dispatch costs a few
// microseconds, which small nodes cannot amortize.
const xgbParallelMinWork = 4096

// binner quantizes features into at most MaxBins buckets using quantile
// edges, once per training call. Splits are searched over bin boundaries.
// Bin indices live in one flat row-major byte matrix, so per-row access in
// the histogram and partition loops is a contiguous read.
type binner struct {
	bins  []uint8 // n x nfeat flat: [row*nfeat+feature] -> bin index
	nfeat int
	edges [][]float64 // [feature][bin] -> upper edge value (split threshold)
}

func newBinner(X [][]float64, maxBins, workers int) *binner {
	n := len(X)
	nfeat := len(X[0])
	b := &binner{
		bins:  make([]uint8, n*nfeat),
		nfeat: nfeat,
		edges: make([][]float64, nfeat),
	}
	// Quantile edges are independent per feature; each worker sorts its own
	// copy, and the edges only depend on the feature's values, so the
	// result is identical for any workers value.
	par.For(nfeat, workers, func(f int) {
		sorted := make([]float64, n)
		for i := 0; i < n; i++ {
			sorted[i] = X[i][f]
		}
		sort.Float64s(sorted)
		// Distinct quantile edges.
		var edges []float64
		if n <= maxBins {
			for i := 0; i < n; i++ {
				//lint:ignore floateq deduplicating sorted stored values; bin edges must be strictly distinct
				if i == 0 || sorted[i] != sorted[i-1] {
					edges = append(edges, sorted[i])
				}
			}
		} else {
			prev := math.Inf(-1)
			for k := 1; k <= maxBins; k++ {
				v := sorted[k*n/maxBins-1]
				//lint:ignore floateq deduplicating sorted stored values; bin edges must be strictly distinct
				if v != prev {
					edges = append(edges, v)
					prev = v
				}
			}
		}
		b.edges[f] = edges
	})
	// Row binning is per-row independent; fixed-size blocks keep the
	// decomposition worker-count invariant.
	blocks := (n + xgbRowBlock - 1) / xgbRowBlock
	if n < xgbParallelMinWork {
		workers = 1
	}
	par.For(blocks, workers, func(bk int) {
		lo, hi := bk*xgbRowBlock, (bk+1)*xgbRowBlock
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			row := b.bins[i*nfeat : (i+1)*nfeat]
			for f := 0; f < nfeat; f++ {
				row[f] = uint8(binIndex(b.edges[f], X[i][f]))
			}
		}
	})
	return b
}

// binIndex returns the smallest bin whose upper edge is >= v (the last bin
// for larger values).
func binIndex(edges []float64, v float64) int {
	lo, hi := 0, len(edges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// splitCand is one feature's best split: its gain and bin, with bin < 0
// meaning no admissible split.
type splitCand struct {
	gain float64
	bin  int
}

// treeScratch holds the per-Train buffers growTree reuses across rounds and
// nodes: per-feature histogram segments, the partition temp, the per-feature
// split candidates, the active-feature list, and the per-row leaf deltas.
// One allocation per Train call instead of several per tree node.
type treeScratch struct {
	// hist interleaves the gradient/hessian histograms as (g, h) pairs so a
	// bin hit touches one cache line: feature f's bin bi lives at
	// hist[2*(f*maxBins+bi)] (gradient) and +1 (hessian).
	hist   []float64
	part   []int32     // length n: right-half temp of the stable in-place partition
	best   []splitCand // per-feature split candidates
	active []int       // features with >= 2 bins
	// leaf[r] is the leaf weight row r reached in the tree just grown —
	// recorded as rows settle into leaves during the build.
	leaf []float64
}

func newTreeScratch(n, nfeat, maxBins int) *treeScratch {
	return &treeScratch{
		hist:   make([]float64, 2*nfeat*maxBins),
		part:   make([]int32, n),
		best:   make([]splitCand, nfeat),
		active: make([]int, 0, nfeat),
		leaf:   make([]float64, n),
	}
}

// growTree builds one regression tree on the given rows over every feature
// using histogram split finding with the XGBoost gain
//
//	gain = GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda).
//
// The histogram accumulation order per (feature, bin) is ascending row
// order on every path: the serial fill walks rows once with features inner
// (each bin accumulator still receives its terms in ascending row order),
// and the parallel fill gives every feature its own pass and its own
// histogram segment. Each feature's best (gain, bin) comes from a strict
// greater-than scan, and the winners fold serially in feature order with
// strict greater-than — the same (feature, bin) the one-loop serial scan
// selects, including every tie-break, for any worker count.
//
// The tree is appended to m's flat arrays as it grows: each node takes the
// next index when it is created, a leaf until a split overwrites it, so
// parents precede their children. Leaves loop to themselves, split nodes
// set their feature's bit in the tree's mask, and the tree's walk length is
// the depth of its deepest leaf.
//
// As rows settle into terminal leaves, ws.leaf[r] records the leaf weight:
// the bin-comparison partition (bins[r][f] <= bin) is exactly the threshold
// traversal (x[f] <= edges[f][bin]), because binIndex returns the smallest
// bin whose upper edge is >= x[f]. Train uses this to update predictions
// without re-walking the tree.
func growTree(m *Model, b *binner, grad, hess []float64, rows []int32, p Params, ws *treeScratch, workers int) {
	maxBins := p.MaxBins
	maskOff := len(m.fmask)
	m.fmask = append(m.fmask, make([]uint64, m.maskWords())...)
	steps := int32(0)
	// Features with < 2 bins can never split (the old per-feature guard);
	// dropping them here keeps the hot fill loops branch-free.
	active := ws.active[:0]
	for f := range b.edges {
		if len(b.edges[f]) >= 2 {
			active = append(active, f)
		}
	}
	var build func(rows []int32, depth int32) int32
	build = func(rows []int32, depth int32) int32 {
		var G, H float64
		for _, r := range rows {
			G += grad[r]
			H += hess[r]
		}
		leafValue := -G / (H + lambda) * eta
		id := int32(len(m.nodes))
		m.nodes = append(m.nodes, cnode{left: id, right: id})
		m.value = append(m.value, leafValue)
		asLeaf := func() int32 {
			for _, r := range rows {
				ws.leaf[r] = leafValue
			}
			if depth > steps {
				steps = depth
			}
			return id
		}
		if int(depth) >= p.MaxDepth || len(rows) < 2 || len(active) == 0 {
			return asLeaf()
		}

		parentScore := G * G / (H + lambda)
		scanFeature := func(f int) {
			cand := splitCand{bin: -1}
			nb := len(b.edges[f])
			hist := ws.hist[2*f*maxBins : 2*(f*maxBins+nb)]
			var GL, HL float64
			for bi := 0; bi < nb-1; bi++ {
				GL += hist[2*bi]
				HL += hist[2*bi+1]
				GR := G - GL
				HR := H - HL
				if HL < minChildWeight || HR < minChildWeight {
					continue
				}
				gain := GL*GL/(HL+lambda) + GR*GR/(HR+lambda) - parentScore
				if gain > cand.gain {
					cand.gain = gain
					cand.bin = bi
				}
			}
			ws.best[f] = cand
		}
		if workers > 1 && len(rows)*len(active) >= xgbParallelMinWork {
			// Parallel: each feature owns its histogram segment and its
			// ws.best slot — one fill pass per feature, ascending rows.
			par.For(len(active), workers, func(ci int) {
				f := active[ci]
				nb := len(b.edges[f])
				hist := ws.hist[2*f*maxBins : 2*(f*maxBins+nb)]
				for i := range hist {
					hist[i] = 0
				}
				for _, r := range rows {
					bi := b.bins[int(r)*b.nfeat+f]
					hist[2*bi] += grad[r]
					hist[2*bi+1] += hess[r]
				}
				scanFeature(f)
			})
		} else {
			// Serial: one pass over rows filling every feature's histogram.
			// Same per-(feature, bin) accumulation order as above.
			for _, f := range active {
				nb := len(b.edges[f])
				hist := ws.hist[2*f*maxBins : 2*(f*maxBins+nb)]
				for i := range hist {
					hist[i] = 0
				}
			}
			for _, r := range rows {
				row := b.bins[int(r)*b.nfeat:]
				g, h := grad[r], hess[r]
				for _, f := range active {
					bi := int(row[f])
					ws.hist[2*(f*maxBins+bi)] += g
					ws.hist[2*(f*maxBins+bi)+1] += h
				}
			}
			for _, f := range active {
				scanFeature(f)
			}
		}
		bestGain := 0.0
		bestFeat := -1
		bestBin := 0
		for _, f := range active {
			if c := ws.best[f]; c.bin >= 0 && c.gain > bestGain {
				bestGain, bestFeat, bestBin = c.gain, f, c.bin
			}
		}
		if bestFeat < 0 {
			return asLeaf()
		}

		// Stable in-place partition: left rows compact to the front (the
		// write index never passes the read index), right rows stage in the
		// shared temp and copy back behind them — same left/right order as
		// the append-based loop, no per-node allocations. The temp is free
		// again before either recursive call partitions its own subslice.
		threshold := b.edges[bestFeat][bestBin]
		nl, nr := 0, 0
		for _, r := range rows {
			if int(b.bins[int(r)*b.nfeat+bestFeat]) <= bestBin {
				rows[nl] = r
				nl++
			} else {
				ws.part[nr] = r
				nr++
			}
		}
		if nl == 0 || nr == 0 {
			// rows is still intact here: an all-left partition rewrites
			// every element in place and an all-right one writes nothing.
			return asLeaf()
		}
		copy(rows[nl:], ws.part[:nr])
		l := build(rows[:nl], depth+1)
		r := build(rows[nl:], depth+1)
		m.nodes[id] = cnode{thresh: threshold, feat: int32(bestFeat), left: l, right: r}
		m.value[id] = 0
		m.fmask[maskOff+bestFeat>>6] |= 1 << (uint(bestFeat) & 63)
		return id
	}
	build(rows, 0)
	m.off = append(m.off, int32(len(m.nodes)))
	m.steps = append(m.steps, steps)
}
