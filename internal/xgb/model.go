package xgb

import "fmt"

// Model is a trained boosted ensemble in one flat structure-of-arrays
// layout: every tree's nodes live in one contiguous node array with tree t
// owning the index range [off[t], off[t+1]). Train appends each tree to the
// arrays as it grows it. Leaves are self-loops (left == right == own
// index), which lets every walk run a fixed number of steps (the tree's
// depth) with no leaf test in the inner loop: once a row reaches its leaf
// it keeps stepping in place. A row goes left iff x[feat] <= thresh, so a
// NaN feature always takes the right child, and the score is base + Σ
// leaf values in tree order.
type Model struct {
	base  float64
	nfeat int

	off   []int32 // tree t's nodes occupy [off[t], off[t+1])
	steps []int32 // per-tree walk length: max root-to-leaf branch count

	nodes []cnode   // packed split records, indexed like value
	value []float64 // leaf weight (internal nodes: 0)

	fmask []uint64 // per-tree feature bitsets, maskWords words each
}

// cnode is the packed per-node record of the walk kernels. Keeping the
// threshold, feature and both children in one load unit matters: the walk
// step loads the whole record, then selects between two registers, which
// the compiler turns into a conditional move — no data-dependent branch
// (split directions are ~random, so such a branch mispredicts ~half the
// time) and a single bounds check per step instead of one per array.
// cnode must stay at four fields: the compiler only SSA-decomposes structs
// that small, and a fifth field spills the loaded record to the stack and
// turns the conditional moves back into branches (measured 4x slower).
type cnode struct {
	thresh float64 // split threshold (leaves: 0)
	feat   int32   // split feature (leaves: 0, inert under self-loop)
	left   int32   // child when x[feat] <= thresh (absolute index)
	right  int32   // child otherwise (absolute index)
}

// maskWords returns the per-tree bitset length in 64-bit words.
func (m *Model) maskWords() int { return (m.nfeat + 63) / 64 }

// Base returns the ensemble's base score (the first addend of every
// prediction).
func (m *Model) Base() float64 { return m.base }

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.steps) }

// NumFeatures returns the feature dimensionality seen at training.
func (m *Model) NumFeatures() int { return m.nfeat }

// treeUsesFeature reports whether tree t splits on feature f anywhere.
func (m *Model) treeUsesFeature(t, f int) bool {
	words := m.maskWords()
	return m.fmask[t*words+f>>6]&(1<<(uint(f)&63)) != 0
}

// TreesTouching returns the trees whose splits read any feature in the
// half-open range [lo, hi), in ascending tree order. A tree absent from the
// result is guaranteed to predict the same leaf for two rows that differ
// only inside the range — the invariant incremental SA scoring relies on.
func (m *Model) TreesTouching(lo, hi int) []int {
	var out []int
	for t := 0; t < m.NumTrees(); t++ {
		for f := lo; f < hi; f++ {
			if m.treeUsesFeature(t, f) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// TreeSplits calls visit for every internal (split) node of tree t with its
// ordinal (node index within the tree — the bit position PredictPairsPath
// reports for it), feature, and threshold, in node order. Leaves are
// skipped. It exists so callers can reason about what a tree could ever
// compare — e.g. to prove two rows indistinguishable to the tree without
// walking it.
func (m *Model) TreeSplits(t int, visit func(ord, feat int, thresh float64)) {
	for i := m.off[t]; i < m.off[t+1]; i++ {
		nd := m.nodes[i]
		if nd.left == i {
			continue
		}
		visit(int(i-m.off[t]), int(nd.feat), nd.thresh)
	}
}

// TreeNodeCount returns the number of nodes (splits and leaves) of tree t.
// Trees with at most 64 nodes have exact PredictPairsPath masks: every node
// owns a distinct bit. Larger trees fold ordinals mod 64, and callers that
// rely on bit-per-node exactness must treat them conservatively.
func (m *Model) TreeNodeCount(t int) int { return int(m.off[t+1] - m.off[t]) }

// Predict evaluates the ensemble on one feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.nfeat {
		//lint:ignore panicpath model invariant: feature-width mismatch means the caller mixed models, not a runtime condition
		panic(fmt.Sprintf("xgb: predict with %d features, model trained on %d", len(x), m.nfeat))
	}
	s := m.base
	for t := range m.steps {
		s += m.predictTree(t, x)
	}
	return s
}

// predictTree walks tree t on one row and returns its leaf value.
func (m *Model) predictTree(t int, x []float64) float64 {
	i := m.off[t]
	nodes := m.nodes
	for d := int32(0); d < m.steps[t]; d++ {
		nd := nodes[i]
		next := nd.right
		if x[nd.feat] <= nd.thresh {
			next = nd.left
		}
		i = next
	}
	return m.value[i]
}

// pairTile is the tile width of the lockstep pair walk — enough
// independent chains to cover load latency without spilling the per-item
// cursors out of registers/L1.
const pairTile = 16

// PackPair packs a (tree, row offset) work item for PredictPairsPath.
func PackPair(tree int32, rowOff int) int64 { return int64(rowOff)<<32 | int64(tree) }

// PairTree recovers the tree id of a PackPair item.
func PairTree(item int64) int32 { return int32(uint32(item)) }

// PredictPairsPath evaluates independent packed (tree, row) work items in
// lockstep: item j walks tree PairTree(items[j]) over the row starting at
// items[j]>>32 in the flat rows buffer. vals[j] receives the tree's leaf
// value for that row, and masks[j] the path mask of the walk: bit
// (ord mod 64) is set for every node the walk visited — split nodes and
// the final leaf alike — where ord is the node's index within the tree
// (the ordinal TreeSplits reports). For trees of at most 64 nodes every
// node owns a distinct bit, so the mask identifies the root-to-leaf path
// exactly; use TreeNodeCount to detect larger trees, whose folded masks
// admit collisions and must not be used for exact-path reasoning. The
// guarantee callers rely on: if every split on the masked path classifies
// a second row identically, the tree takes the identical path on it —
// same leaf value, same mask — with no walk needed.
//
// Items may mix arbitrary trees and rows — the incremental SA scorer
// batches every surviving walk of a whole proposal sweep into one call, so
// tile after tile of independent load-compare chains keeps the memory
// pipeline full regardless of how few trees any single proposal needs.
func (m *Model) PredictPairsPath(items []int64, rows []float64, vals []float64, masks []uint64) {
	for lo := 0; lo < len(items); lo += pairTile {
		hi := lo + pairTile
		if hi > len(items) {
			hi = len(items)
		}
		m.predictPairsTile(items[lo:hi], rows, vals[lo:hi], masks[lo:hi])
	}
}

func (m *Model) predictPairsTile(items []int64, rows []float64, vals []float64, masks []uint64) {
	nodes := m.nodes
	var idx, root, roff [pairTile]int32
	var msk [pairTile]uint64
	maxSteps := int32(0)
	for j, it := range items {
		t := int32(uint32(it))
		idx[j] = m.off[t]
		root[j] = m.off[t]
		roff[j] = int32(it >> 32)
		if s := m.steps[t]; s > maxSteps {
			maxSteps = s
		}
	}
	tidx := idx[:len(items)]
	// Items whose tree is shallower than maxSteps keep stepping in place at
	// their leaf (self-loop); the repeated OR of the leaf's own bit is
	// idempotent, and the final fold below adds it for paths that arrive at
	// the leaf exactly on the last step — so the mask never depends on how
	// items were tiled together.
	for d := int32(0); d < maxSteps; d++ {
		for j := range tidx {
			i := tidx[j]
			nd := nodes[i]
			msk[j] |= 1 << (uint(i-root[j]) & 63)
			next := nd.right
			if rows[roff[j]+nd.feat] <= nd.thresh {
				next = nd.left
			}
			tidx[j] = next
		}
	}
	for j := range tidx {
		i := tidx[j]
		vals[j] = m.value[i]
		masks[j] = msk[j] | 1<<(uint(i-root[j])&63)
	}
}
