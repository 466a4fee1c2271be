package tuner

import (
	"fmt"

	"repro/internal/space"
	"repro/internal/xgb"
)

// saObjective is the incremental SA objective of the model-based tuners:
// the trained surrogate's flat ensemble plus delta-encoded feature rows.
//
// It exploits three structural facts. First, knob features are independent:
// Config.Features() is the concatenation of per-knob spans, and each span
// depends only on that knob's option index — so a proposal that changes
// one knob changes exactly one bounded span of the feature row, which is
// patched in place from a precomputed per-option feature table instead of
// re-encoded (and re-allocated) from scratch. Second, a tree whose splits
// never read a feature inside the changed span must route the patched row
// to the same leaf, so its cached contribution is reused (knobTrees).
// Third, even a tree that does read the span only changes its answer if a
// span split on the row's own cached root-to-leaf path classifies the old
// and new option differently — the path-signature gate: per (knob, tree,
// option) the outcomes of every span-reading split are packed into a
// uint64 keyed by node ordinal, and XOR-ing two options' signatures against
// the cached path mask decides the walk exactly. A typical proposal
// re-walks only a handful of trees, in one lockstep pass.
//
// Every score it produces is bit-identical to
// model.Predict(config.Features()): patched spans hold the same float64s
// the encoder would produce, cached tree contributions are the same leaf
// values a fresh walk loads, and the final sum runs base + tree 0 + tree 1
// + ... in the exact order of Model.Predict.
type saObjective struct {
	// Read-only after construction.
	m         *xgb.Model
	sp        *space.Space
	dim       int
	nk        int
	offs      []int       // knob k's feature span is [offs[k], offs[k+1])
	table     [][]float64 // per knob: option-major flat feature table
	knobTrees [][]int32   // per knob: trees whose splits read its span
	knobSig   [][]uint64  // per knob: option-major split signatures per tree slot (nil: ungateable, walk all)

	// Walker state, sized by InitBatch.
	curOpt   []int32   // walkers x nk current option indices
	cur      []float64 // walkers x dim current rows (patched during scoring)
	curTree  []float64 // walkers x ntrees cached tree contributions
	curPath  []uint64  // walkers x ntrees cached path masks
	curScore []float64 // cached full scores (base + tree sum)
	scores   []float64 // returned score buffer (valid until next call)

	// Pending proposal state, valid from ProposeBatch until the commits
	// that follow it. Each walker's re-walked trees live in its segment
	// [propW[i], propW[i]+propNG[i]) of the shared work list.
	pendKnob []int32 // changed knob (-1: unchanged clone)
	pendOpt  []int32 // its proposed option
	propW    []int32 // per walker: work-list segment start
	propNG   []int32 // per walker: work-list segment length

	// The shared work list of the three-pass sweep: the surviving walks of
	// all proposals are gathered flat, walked in a single lockstep kernel
	// call, then scattered back per proposal.
	maxSpan  int
	sum      []float64 // scratch: per-tree addends of four proposals' scores
	sumIdx   []int32   // scratch: proposals pending a full sum this sweep
	witems   []int64   // work list: packed (tree, row offset) items
	wval     []float64 // work list results: contributions
	wmask    []uint64  // work list results: path masks
	spanSave []float64 // walkers x maxSpan: span values while rows are patched
}

// newSAObjective precomputes the per-knob feature tables, knob-to-trees
// index, and split signatures of the trained surrogate over sp.
func newSAObjective(model *xgb.Model, sp *space.Space) *saObjective {
	return resetSAObjective(nil, model, sp)
}

// resetSAObjective is newSAObjective with cross-round buffer reuse: the
// tuner retrains its surrogate every round over the same space, so the
// space-derived state (offs, feature tables) carries over verbatim and the
// model-derived state (knob-to-trees index, signatures, walker caches) is
// rebuilt into the previous round's allocations. Passing nil builds from
// scratch; passing an objective built over a different space also falls
// back to scratch.
func resetSAObjective(o *saObjective, model *xgb.Model, sp *space.Space) *saObjective {
	if model.NumFeatures() != sp.FeatureDim() {
		//lint:ignore panicpath trainModel only ever fits on rows encoded from this space, so a width mismatch is a programming error
		panic(fmt.Sprintf("tuner: surrogate trained on %d features, space encodes %d", model.NumFeatures(), sp.FeatureDim()))
	}
	n := sp.NumKnobs()
	if o == nil || o.sp != sp {
		o = &saObjective{
			sp:        sp,
			dim:       sp.FeatureDim(),
			nk:        n,
			offs:      make([]int, n+1),
			table:     make([][]float64, n),
			knobTrees: make([][]int32, n),
			knobSig:   make([][]uint64, n),
		}
		off, maxSpan := 0, 0
		for k := 0; k < n; k++ {
			kn := sp.Knob(k)
			kd := kn.FeatureDim()
			o.offs[k] = off
			tab := make([]float64, 0, kn.Len()*kd)
			for opt := 0; opt < kn.Len(); opt++ {
				tab = kn.Feature(tab, opt)
			}
			o.table[k] = tab
			if kd > maxSpan {
				maxSpan = kd
			}
			off += kd
		}
		o.offs[n] = off
		o.maxSpan = maxSpan
	}
	o.m = model
	for k := 0; k < n; k++ {
		off, kd := o.offs[k], o.offs[k+1]-o.offs[k]
		nopts := sp.Knob(k).Len()
		trees := o.knobTrees[k][:0]
		gateable := true
		for _, t := range model.TreesTouching(off, off+kd) {
			trees = append(trees, int32(t))
			// A tree with more than 64 nodes folds path-mask ordinals, so
			// the signature gate is unsound for it: the knob degrades to
			// walking every touching tree. (Trees of the tuner's depth
			// never hit this.)
			if model.TreeNodeCount(t) > 64 {
				gateable = false
			}
		}
		o.knobTrees[k] = trees
		if gateable {
			o.knobSig[k] = knobOptionSigs(model, trees, o.table[k], off, kd, nopts, grow(o.knobSig[k], len(trees)*nopts))
		} else {
			o.knobSig[k] = nil
		}
	}
	return o
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is insufficient. Contents are unspecified — callers overwrite.
func grow[T int32 | int64 | uint64 | float64](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// knobOptionSigs packs, per touching tree and option, the outcome of every
// split of the tree that reads the knob's span into a uint64 signature: bit
// ord (the split node's ordinal, PredictPairsPath's bit position for it) is
// set iff the option's encoding satisfies the split's <=. Two options whose
// signatures agree on every bit of a cached path mask are provably routed
// down the identical path by that tree — the cached leaf value and mask
// hold without a walk. Returned option-major: option opt's row is
// [opt*len(trees), (opt+1)*len(trees)), so the gate XORs two contiguous
// rows. Callers must only pass trees whose node count fits 64 bits, and
// sig must have len(trees)*nopts elements (it is cleared and filled here).
func knobOptionSigs(m *xgb.Model, trees []int32, tab []float64, off, kd, nopts int, sig []uint64) []uint64 {
	ntl := len(trees)
	clear(sig)
	for ji, t := range trees {
		m.TreeSplits(int(t), func(ord, f int, th float64) {
			if f < off || f >= off+kd {
				return
			}
			bit := uint64(1) << (uint(ord) & 63)
			for opt := 0; opt < nopts; opt++ {
				if tab[opt*kd+(f-off)] <= th {
					sig[opt*ntl+ji] |= bit
				}
			}
		})
	}
	return sig
}

// encode writes c's feature row into dst from the per-knob tables —
// the same float64s Config.Features() appends, without the allocation or
// the per-option math.
func (o *saObjective) encode(dst []float64, c space.Config) {
	for k, opt := range c.Index {
		lo := o.offs[k]
		kd := o.offs[k+1] - lo
		copy(dst[lo:lo+kd], o.table[k][opt*kd:(opt+1)*kd])
	}
}

// InitBatch implements sa.DeltaObjective: encode every walker row, then
// walk every (walker, tree) pair in one lockstep kernel pass — it fills
// the contribution and path caches directly, and the per-walker scores
// fold up in exact tree order.
func (o *saObjective) InitBatch(points []space.Config) []float64 {
	w := len(points)
	nt := o.m.NumTrees()
	base := o.m.Base()
	// Every buffer is fully overwritten below or written before read in the
	// propose/commit cycle, so reusing a previous round's allocations (via
	// resetSAObjective pooling) cannot leak stale state.
	o.cur = grow(o.cur, w*o.dim)
	o.curTree = grow(o.curTree, w*nt)
	o.curPath = grow(o.curPath, w*nt)
	o.curScore = grow(o.curScore, w)
	o.scores = grow(o.scores, w)
	o.pendKnob = grow(o.pendKnob, w)
	o.pendOpt = grow(o.pendOpt, w)
	o.propW = grow(o.propW, w)
	o.propNG = grow(o.propNG, w)
	o.witems = grow(o.witems, w*nt)
	o.wval = grow(o.wval, w*nt)
	o.wmask = grow(o.wmask, w*nt)
	o.spanSave = grow(o.spanSave, w*o.maxSpan)
	o.sum = grow(o.sum, 4*nt)
	o.sumIdx = grow(o.sumIdx, w)
	o.curOpt = grow(o.curOpt, w*o.nk)
	for i, c := range points {
		o.encode(o.cur[i*o.dim:(i+1)*o.dim], c)
		for k, opt := range c.Index {
			o.curOpt[i*o.nk+k] = int32(opt)
		}
	}
	n := 0
	for i := 0; i < w; i++ {
		for t := 0; t < nt; t++ {
			o.witems[n] = xgb.PackPair(int32(t), i*o.dim)
			n++
		}
	}
	// The item order matches the walker-major cache layout, so the kernel
	// writes curTree and curPath in place.
	o.m.PredictPairsPath(o.witems[:n], o.cur, o.curTree, o.curPath)
	for i := 0; i < w; i++ {
		s := base
		for t := 0; t < nt; t++ {
			s += o.curTree[i*nt+t]
		}
		o.scores[i] = s
	}
	copy(o.curScore, o.scores)
	return o.scores
}

// ProposeBatch implements sa.DeltaObjective in three passes over the
// sweep. Pass one gates, per proposal: trees whose splits never read the
// changed knob's span are out (knobTrees), and of the rest only those with
// a span split on the walker's cached path that classifies the old and new
// option differently stay in — (sigOld XOR sigNew) AND pathMask, one test,
// exact. Survivors join one flat (tree, row) work list and the walker's
// row is patched in place. Pass two walks the entire work list in a single
// lockstep kernel call — across proposals, so the chains stay wide even
// when one proposal keeps only a tree or two. Pass three merges each
// proposal's fresh leaf values over its cached contributions and sums in
// exact tree order, then reverts the patches (Commit re-applies them for
// accepted walkers). A proposal whose every touching tree was gated out
// returns the cached score as-is — the sum of identical addends is the
// identical float64.
func (o *saObjective) ProposeBatch(proposals []space.Config, changed []int) []float64 {
	nt := o.m.NumTrees()
	base := o.m.Base()
	wn := 0
	for i := range proposals {
		ki := changed[i]
		if ki < 0 {
			// Unchanged clone: the score is the cached score by definition.
			o.pendKnob[i] = -1
			o.scores[i] = o.curScore[i]
			continue
		}
		opt := proposals[i].Index[ki]
		oldOpt := int(o.curOpt[i*o.nk+ki])
		pb := i * nt
		trees := o.knobTrees[ki]
		ntl := len(trees)
		pbase := int64(i*o.dim) << 32
		wi := o.witems[wn:]
		o.propW[i] = int32(wn)
		ng := 0
		if sigs := o.knobSig[ki]; sigs != nil {
			sOld := sigs[oldOpt*ntl : (oldOpt+1)*ntl]
			sNew := sigs[opt*ntl : (opt+1)*ntl]
			for ji, t := range trees {
				// Unconditional store, conditional advance: whether a tree
				// survives the gate is data-dependent coin-flipping, so a
				// skip branch here would mispredict its way through the
				// sweep; the dead store (overwritten next iteration when
				// the tree was gated out) is free by comparison.
				wi[ng] = pbase | int64(t)
				if (sOld[ji]^sNew[ji])&o.curPath[pb+int(t)] != 0 {
					ng++
				}
			}
		} else {
			// Ungateable knob (a touching tree exceeds 64 nodes): walk all.
			for ji, t := range trees {
				wi[ji] = pbase | int64(t)
			}
			ng = ntl
		}
		if ng > 0 {
			lo := o.offs[ki]
			kd := o.offs[ki+1] - lo
			span := o.cur[i*o.dim+lo : i*o.dim+lo+kd]
			sv := o.spanSave[i*o.maxSpan : i*o.maxSpan+kd]
			tb := o.table[ki][opt*kd : (opt+1)*kd]
			// Spans are a handful of floats; explicit loops beat memmove
			// calls at this size.
			for z := range span {
				sv[z] = span[z]
				span[z] = tb[z]
			}
		}
		o.propNG[i] = int32(ng)
		wn += ng
		o.pendKnob[i] = int32(ki)
		o.pendOpt[i] = int32(opt)
	}
	o.m.PredictPairsPath(o.witems[:wn], o.cur, o.wval[:wn], o.wmask[:wn])
	// Revert the row patches and collect the proposals that still need a
	// full sum; a proposal whose every touching tree was gated out keeps
	// the cached sum, bit for bit.
	m := 0
	for i := range proposals {
		ki := int(o.pendKnob[i])
		if ki < 0 {
			continue
		}
		if o.propNG[i] == 0 {
			o.scores[i] = o.curScore[i]
			continue
		}
		lo := o.offs[ki]
		kd := o.offs[ki+1] - lo
		span := o.cur[i*o.dim+lo : i*o.dim+lo+kd]
		sv := o.spanSave[i*o.maxSpan : i*o.maxSpan+kd]
		for z := range span {
			span[z] = sv[z]
		}
		o.sumIdx[m] = int32(i)
		m++
	}
	// Merge each pending proposal's fresh leaf values over its cached
	// contributions and sum in exact tree order. A walk that found the same
	// leaf scatters the identical bits, so no fresh-vs-cached comparison is
	// needed for exactness. Four proposals are summed in lockstep: each
	// ordered sum is a serial float-add latency chain, and the chains are
	// independent across proposals, so interleaving four overlaps the add
	// latencies without touching any single proposal's addend order.
	z := 0
	for ; z+4 <= m; z += 4 {
		for q := 0; q < 4; q++ {
			i := int(o.sumIdx[z+q])
			pb := i * nt
			copy(o.sum[q*nt:(q+1)*nt], o.curTree[pb:pb+nt])
			w := int(o.propW[i])
			for j := w; j < w+int(o.propNG[i]); j++ {
				o.sum[q*nt+int(xgb.PairTree(o.witems[j]))] = o.wval[j]
			}
		}
		s0, s1, s2, s3 := base, base, base, base
		a0, a1, a2, a3 := o.sum[0:nt], o.sum[nt:2*nt], o.sum[2*nt:3*nt], o.sum[3*nt:4*nt]
		for t := 0; t < nt; t++ {
			s0 += a0[t]
			s1 += a1[t]
			s2 += a2[t]
			s3 += a3[t]
		}
		o.scores[o.sumIdx[z]] = s0
		o.scores[o.sumIdx[z+1]] = s1
		o.scores[o.sumIdx[z+2]] = s2
		o.scores[o.sumIdx[z+3]] = s3
	}
	for ; z < m; z++ {
		i := int(o.sumIdx[z])
		pb := i * nt
		copy(o.sum, o.curTree[pb:pb+nt])
		w := int(o.propW[i])
		for j := w; j < w+int(o.propNG[i]); j++ {
			o.sum[xgb.PairTree(o.witems[j])] = o.wval[j]
		}
		s := base
		for t := 0; t < nt; t++ {
			s += o.sum[t]
		}
		o.scores[i] = s
	}
	return o.scores
}

// Commit implements sa.DeltaObjective: walker i's proposal becomes its
// current point — the span patch is re-applied and the walker's work-list
// segment lands in the contribution and path caches. (Trees the gate kept
// out of the segment provably kept their cached path, so their entries are
// already correct.)
func (o *saObjective) Commit(i int) {
	ki := int(o.pendKnob[i])
	if ki < 0 {
		return
	}
	nt := o.m.NumTrees()
	lo := o.offs[ki]
	kd := o.offs[ki+1] - lo
	opt := int(o.pendOpt[i])
	o.curOpt[i*o.nk+ki] = int32(opt)
	span := o.cur[i*o.dim+lo : i*o.dim+lo+kd]
	tb := o.table[ki][opt*kd : (opt+1)*kd]
	for z := range span {
		span[z] = tb[z]
	}
	pb := i * nt
	w := int(o.propW[i])
	for j := w; j < w+int(o.propNG[i]); j++ {
		t := int(xgb.PairTree(o.witems[j]))
		o.curTree[pb+t] = o.wval[j]
		o.curPath[pb+t] = o.wmask[j]
	}
	o.curScore[i] = o.scores[i]
}
