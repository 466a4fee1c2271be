package xgb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The test oracles of the flat layout: a naive leaf-test walk, the scalar
// path walker PredictPairsPath must reproduce, and a structural check of
// the arrays Train (or the fuzz packer) writes.

// leafWalk walks tree t on x until it reaches a self-loop leaf, testing for
// the leaf at every node instead of counting steps.
func (m *Model) leafWalk(t int, x []float64) float64 {
	i := m.off[t]
	for {
		nd := m.nodes[i]
		if nd.left == i && nd.right == i {
			return m.value[i]
		}
		if x[nd.feat] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// naivePredict is Predict over leafWalk: base + Σ leaf values in tree order.
func (m *Model) naivePredict(x []float64) float64 {
	s := m.base
	for t := 0; t < m.NumTrees(); t++ {
		s += m.leafWalk(t, x)
	}
	return s
}

// PredictTreePath evaluates tree t on one row and returns its leaf value
// plus the path mask of the walk: bit (ord mod 64) is set for every node
// the walk visited, leaf included — what PredictPairsPath reports for the
// (t, row) item, one pair at a time.
func (m *Model) PredictTreePath(t int, x []float64) (float64, uint64) {
	i := m.off[t]
	root := i
	var mask uint64
	for d := int32(0); d < m.steps[t]; d++ {
		nd := m.nodes[i]
		mask |= 1 << (uint(i-root) & 63)
		next := nd.right
		if x[nd.feat] <= nd.thresh {
			next = nd.left
		}
		i = next
	}
	return m.value[i], mask | 1<<(uint(i-root)&63)
}

// compiledSanity checks the invariants the fixed-step walk relies on: the
// offsets partition the node array, every leaf is a full self-loop, every
// split's children lie later in its own tree (so walks terminate), split
// nodes carry no value, steps[t] is the depth of the tree's deepest leaf,
// and the feature mask holds exactly the features the tree splits on.
func (m *Model) compiledSanity() error {
	nt := m.NumTrees()
	if nt > 0 && (len(m.off) != nt+1 || m.off[0] != 0 || int(m.off[nt]) != len(m.nodes)) {
		return fmt.Errorf("offsets %v do not partition %d nodes into %d trees", m.off, len(m.nodes), nt)
	}
	if len(m.value) != len(m.nodes) || len(m.fmask) != nt*m.maskWords() {
		return fmt.Errorf("array lengths: %d values, %d mask words for %d nodes, %d trees", len(m.value), len(m.fmask), len(m.nodes), nt)
	}
	for t := 0; t < nt; t++ {
		lo, hi := m.off[t], m.off[t+1]
		if lo >= hi {
			return fmt.Errorf("tree %d: empty node range", t)
		}
		// depth[i] is the longest branch count from the root to node i;
		// -1 marks nodes no walk reaches.
		depth := make([]int32, hi-lo)
		for i := range depth {
			depth[i] = -1
		}
		depth[0] = 0
		deepest := int32(0)
		mask := make([]uint64, m.maskWords())
		for i := lo; i < hi; i++ {
			nd := m.nodes[i]
			leaf := nd.left == i
			if leaf != (nd.right == i) {
				return fmt.Errorf("tree %d node %d: half self-loop", t, i-lo)
			}
			if leaf {
				if depth[i-lo] > deepest {
					deepest = depth[i-lo]
				}
				continue
			}
			if nd.left <= i || nd.left >= hi || nd.right <= i || nd.right >= hi {
				return fmt.Errorf("tree %d node %d: child out of range", t, i-lo)
			}
			if nd.feat < 0 || int(nd.feat) >= m.nfeat {
				return fmt.Errorf("tree %d node %d: feature %d out of range", t, i-lo, nd.feat)
			}
			if m.value[i] != 0 {
				return fmt.Errorf("tree %d node %d: split carries value %v", t, i-lo, m.value[i])
			}
			mask[nd.feat>>6] |= 1 << (uint(nd.feat) & 63)
			if depth[i-lo] < 0 {
				continue
			}
			for _, c := range []int32{nd.left, nd.right} {
				if d := depth[i-lo] + 1; d > depth[c-lo] {
					depth[c-lo] = d
				}
			}
		}
		if m.steps[t] != deepest {
			return fmt.Errorf("tree %d: walk length %d, deepest leaf at %d", t, m.steps[t], deepest)
		}
		for w, bits := range mask {
			if m.fmask[t*len(mask)+w] != bits {
				return fmt.Errorf("tree %d: feature mask word %d is %#x, splits use %#x", t, w, m.fmask[t*len(mask)+w], bits)
			}
		}
	}
	return nil
}

// trainRandom fits an ensemble on random data under the given parameter
// and target tweaks and returns it with a scoring pool.
func trainRandom(t *testing.T, seed int64, mut func(*Params, []float64)) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(200)
	d := 1 + rng.Intn(16)
	X, y := benchData(n, d, seed+1)
	p := Params{
		NumRounds: 1 + rng.Intn(32),
		MaxDepth:  1 + rng.Intn(7),
		MaxBins:   2 + rng.Intn(40),
		Seed:      seed,
	}
	if mut != nil {
		mut(&p, y)
	}
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := benchData(257, d, seed+2)
	return m, pool
}

// assertMatchesNaive requires Predict to equal the naive leaf-test walk bit
// for bit on every row, and each tree's path-walk value to equal its leaf.
func assertMatchesNaive(t *testing.T, m *Model, pool [][]float64) {
	t.Helper()
	for i, row := range pool {
		if got, want := m.Predict(row), m.naivePredict(row); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: Predict %x, naive walk %x", i, math.Float64bits(got), math.Float64bits(want))
		}
		for tr := 0; tr < m.NumTrees(); tr++ {
			v, _ := m.PredictTreePath(tr, row)
			if math.Float64bits(v) != math.Float64bits(m.leafWalk(tr, row)) {
				t.Fatalf("row %d tree %d: PredictTreePath value differs from the naive walk", i, tr)
			}
		}
	}
}

// withNaNs returns a copy of pool with one NaN per row and an infinity in
// every other row.
func withNaNs(pool [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, len(pool))
	for i, row := range pool {
		row = append([]float64(nil), row...)
		nan := rng.Intn(len(row))
		row[nan] = math.NaN()
		if rng.Intn(2) == 0 {
			row[(nan+1)%len(row)] = math.Inf(1 - 2*rng.Intn(2))
		}
		out[i] = row
	}
	return out
}

// oneOutlier sets every target to 1 but the first, which it sets to 2. All
// other rows share one gradient in every round, so a split only pays where
// it separates the outlier, and the trees stay shallow.
func oneOutlier(_ *Params, y []float64) {
	for i := range y {
		y[i] = 1
	}
	y[0] = 2
}

// TestTrainedLayoutSound is the layout contract of Train: across a
// parameter sweep (every depth 1-8, the rank objective, single-sample,
// single-outlier and constant targets) every trained model's
// flat arrays pass compiledSanity, and Predict equals the naive leaf-test
// walk bit for bit on random rows and on rows with NaN and infinite
// features.
func TestTrainedLayoutSound(t *testing.T) {
	type trainCase struct {
		name string
		n, d int
		mut  func(*Params, []float64)
	}
	var cases []trainCase
	for depth := 1; depth <= 8; depth++ {
		depth := depth
		cases = append(cases, trainCase{fmt.Sprintf("depth%d", depth), 300, 9, func(p *Params, _ []float64) { p.MaxDepth = depth }})
	}
	cases = append(cases,
		trainCase{"rank", 300, 9, func(p *Params, _ []float64) { p.Objective = ObjPairwiseRank }},
		trainCase{"outlier", 300, 9, oneOutlier}, // shallow trees
		trainCase{"single-sample", 1, 5, nil},
		trainCase{"constant", 64, 6, func(_ *Params, y []float64) {
			for i := range y {
				y[i] = 3.25
			}
		}},
		trainCase{"wide", 200, 70, nil}, // feature masks span two words
	)
	for ci, tc := range cases {
		X, y := benchData(tc.n, tc.d, int64(ci))
		p := testParams()
		p.NumRounds = 12
		p.Seed = int64(ci)
		if tc.mut != nil {
			tc.mut(&p, y)
		}
		m, err := Train(X, y, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.NumTrees() != p.NumRounds || m.NumFeatures() != tc.d {
			t.Fatalf("%s: %d trees over %d features, want %d over %d", tc.name, m.NumTrees(), m.NumFeatures(), p.NumRounds, tc.d)
		}
		if err := m.compiledSanity(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for tr := 0; tr < m.NumTrees(); tr++ {
			if int(m.steps[tr]) > p.MaxDepth {
				t.Fatalf("%s: tree %d walks %d steps, MaxDepth %d", tc.name, tr, m.steps[tr], p.MaxDepth)
			}
		}
		pool, _ := benchData(129, tc.d, int64(1000+ci))
		assertMatchesNaive(t, m, append(pool, X...))
		if tc.d > 1 {
			assertMatchesNaive(t, m, withNaNs(pool, int64(ci)))
		}
	}
}

// TestCompiledSingleLeafTrees trains on constant targets, which makes every
// split gainless: the ensemble degenerates to single-leaf trees, the walk
// to zero steps.
func TestCompiledSingleLeafTrees(t *testing.T) {
	X, _ := benchData(64, 6, 7)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 3.25
	}
	p := testParams()
	p.NumRounds = 8
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < m.NumTrees(); tr++ {
		if m.steps[tr] != 0 {
			t.Fatalf("tree %d: depth %d, want 0 for single-leaf tree", tr, m.steps[tr])
		}
	}
	pool, _ := benchData(33, 6, 8)
	assertMatchesNaive(t, m, pool)
}

// TestCompiledMissingFeatureDefault pins NaN routing: a NaN feature fails
// every x <= threshold test, so the walk must take the right child at every
// split on that feature, as the naive walk does.
func TestCompiledMissingFeatureDefault(t *testing.T) {
	m, pool := trainRandom(t, 55, nil)
	assertMatchesNaive(t, m, withNaNs(pool, 9))
}

// TestCompiledEmptyEnsemble covers the degenerate model: no trees,
// prediction is the base score.
func TestCompiledEmptyEnsemble(t *testing.T) {
	m := &Model{base: 1.5, nfeat: 3}
	x := []float64{0, 1, 2}
	if got := m.Predict(x); got != 1.5 {
		t.Fatalf("empty ensemble predicts %v, want base 1.5", got)
	}
	if got := m.TreesTouching(0, 3); len(got) != 0 {
		t.Fatalf("empty ensemble has touching trees %v", got)
	}
	m.PredictPairsPath(nil, x, nil, nil)
}

// TestCompiledTreesTouching verifies the per-tree feature sets against the
// split nodes, and the semantic guarantee: a tree not touching a feature
// range predicts identically for rows differing only inside it.
func TestCompiledTreesTouching(t *testing.T) {
	m, pool := trainRandom(t, 77, nil)
	d := m.NumFeatures()
	for tr := 0; tr < m.NumTrees(); tr++ {
		used := make(map[int]bool)
		m.TreeSplits(tr, func(_, f int, _ float64) { used[f] = true })
		for f := 0; f < d; f++ {
			if used[f] != m.treeUsesFeature(tr, f) {
				t.Fatalf("tree %d feature %d: mask %v, split nodes say %v", tr, f, m.treeUsesFeature(tr, f), used[f])
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for f := 0; f < d; f++ {
		touching := make(map[int]bool)
		for _, tr := range m.TreesTouching(f, f+1) {
			touching[tr] = true
		}
		for tr := 0; tr < m.NumTrees(); tr++ {
			if touching[tr] {
				continue
			}
			row := append([]float64(nil), pool[rng.Intn(len(pool))]...)
			before := m.leafWalk(tr, row)
			row[f] = rng.NormFloat64() * 100
			after := m.leafWalk(tr, row)
			if math.Float64bits(before) != math.Float64bits(after) {
				t.Fatalf("tree %d claims not to touch feature %d but prediction changed", tr, f)
			}
		}
	}
}

// TestCompiledPathWalks is the differential contract of the path-reporting
// walkers behind the SA objective's signature gate. PredictTreePath must
// return the naive walk's value plus the mask of visited node ordinals of
// the real root-to-leaf walk (leaf included), verified against an
// independent walk that collects ordinals until it reaches the leaf;
// PredictPairsPath over an arbitrary packed (tree, row-offset) work list —
// duplicate trees, rows in scrambled order, length straddling the tile
// size — must reproduce the scalar walker pair by pair, values and masks
// both.
func TestCompiledPathWalks(t *testing.T) {
	muts := []func(*Params, []float64){
		nil,
		oneOutlier, // shallow trees
		func(_ *Params, y []float64) { // leaf-only trees
			for i := range y {
				y[i] = 3.25
			}
		},
	}
	for seed := int64(0); seed < 4; seed++ {
		for mi, mut := range muts {
			m, pool := trainRandom(t, 500+100*seed+int64(mi), mut)
			refWalk := func(tr int, x []float64) (float64, uint64) {
				root := m.off[tr]
				i := root
				var mask uint64
				for {
					mask |= 1 << (uint(i-root) & 63)
					nd := m.nodes[i]
					next := nd.right
					if x[nd.feat] <= nd.thresh {
						next = nd.left
					}
					if next == i {
						return m.value[i], mask
					}
					i = next
				}
			}
			dim := m.NumFeatures()
			rows := make([]float64, len(pool)*dim)
			for i, row := range pool {
				copy(rows[i*dim:(i+1)*dim], row)
			}
			var items []int64
			var wantVal []float64
			var wantMask []uint64
			rng := rand.New(rand.NewSource(seed))
			for tr := 0; tr < m.NumTrees(); tr++ {
				if cnt := m.TreeNodeCount(tr); cnt <= 0 {
					t.Fatalf("tree %d: node count %d", tr, cnt)
				}
				for rep := 0; rep < 2; rep++ { // duplicate trees in the work list
					ri := rng.Intn(len(pool))
					v, msk := m.PredictTreePath(tr, pool[ri])
					rv, rmsk := refWalk(tr, pool[ri])
					if math.Float64bits(v) != math.Float64bits(rv) || msk != rmsk {
						t.Fatalf("tree %d row %d: PredictTreePath (%x, %#x) vs reference walk (%x, %#x)",
							tr, ri, math.Float64bits(v), msk, math.Float64bits(rv), rmsk)
					}
					items = append(items, PackPair(int32(tr), ri*dim))
					wantVal = append(wantVal, v)
					wantMask = append(wantMask, msk)
				}
			}
			rng.Shuffle(len(items), func(i, j int) {
				items[i], items[j] = items[j], items[i]
				wantVal[i], wantVal[j] = wantVal[j], wantVal[i]
				wantMask[i], wantMask[j] = wantMask[j], wantMask[i]
			})
			vals := make([]float64, len(items))
			masks := make([]uint64, len(items))
			m.PredictPairsPath(items, rows, vals, masks)
			for j, it := range items {
				if math.Float64bits(vals[j]) != math.Float64bits(wantVal[j]) || masks[j] != wantMask[j] {
					t.Fatalf("item %d (tree %d): PredictPairsPath (%x, %#x), scalar walker (%x, %#x)",
						j, PairTree(it), math.Float64bits(vals[j]), masks[j], math.Float64bits(wantVal[j]), wantMask[j])
				}
			}
		}
	}
}

// TestCompiledTreeSplits pins the split-visitor contract the signature gate
// builds on: TreeSplits must report exactly the non-leaf nodes of the
// tree — ordinals unique and in range, features and thresholds matching the
// nodes — and every ordinal PredictTreePath ever sets below the leaf must
// belong to a reported split.
func TestCompiledTreeSplits(t *testing.T) {
	m, pool := trainRandom(t, 909, nil)
	for tr := 0; tr < m.NumTrees(); tr++ {
		root := m.off[tr]
		cnt := m.TreeNodeCount(tr)
		splits := make(map[int]cnode)
		m.TreeSplits(tr, func(ord, f int, th float64) {
			if ord < 0 || ord >= cnt {
				t.Fatalf("tree %d: split ordinal %d out of [0, %d)", tr, ord, cnt)
			}
			if _, dup := splits[ord]; dup {
				t.Fatalf("tree %d: ordinal %d visited twice", tr, ord)
			}
			nd := m.nodes[root+int32(ord)]
			if int(nd.feat) != f || math.Float64bits(nd.thresh) != math.Float64bits(th) {
				t.Fatalf("tree %d ord %d: visitor reports (%d, %v), node holds (%d, %v)", tr, ord, f, th, nd.feat, nd.thresh)
			}
			if nd.left == root+int32(ord) && nd.right == root+int32(ord) {
				t.Fatalf("tree %d ord %d: visitor reported a self-loop leaf as a split", tr, ord)
			}
			splits[ord] = nd
		})
		for _, row := range pool[:16] {
			_, mask := m.PredictTreePath(tr, row)
			// Strip the leaf: every remaining path bit must be a split.
			for ord := 0; ord < cnt && cnt <= 64; ord++ {
				if mask&(1<<uint(ord)) == 0 {
					continue
				}
				nd := m.nodes[root+int32(ord)]
				if nd.left == root+int32(ord) && nd.right == root+int32(ord) {
					continue // the walk's terminal leaf
				}
				if _, ok := splits[ord]; !ok {
					t.Fatalf("tree %d: path visits ordinal %d but TreeSplits never reported it", tr, ord)
				}
			}
		}
	}
}
