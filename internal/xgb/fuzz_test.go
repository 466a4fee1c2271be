package xgb

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzBuildModel decodes arbitrary fuzz bytes into a structurally valid
// ensemble in the flat layout (children always point to strictly later
// indices, every walk terminates in a self-loop leaf, nodes may be shared
// by several parents or reached by none) while letting thresholds and leaf
// values take any bit pattern, including NaN and ±Inf.
func fuzzBuildModel(data []byte) (*Model, []float64) {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		var buf [8]byte
		n := copy(buf[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	nfeat := int(next()%8) + 1
	ntrees := int(next() % 5)
	m := &Model{base: math.Float64frombits(next()), nfeat: nfeat, off: []int32{0}}
	for t := 0; t < ntrees; t++ {
		nnodes := int(next()%16) + 1
		root := int32(len(m.nodes))
		m.fmask = append(m.fmask, make([]uint64, m.maskWords())...)
		depth := make([]int32, nnodes) // longest branch count from the root
		steps := int32(0)
		for i := 0; i < nnodes; i++ {
			gi := root + int32(i)
			// A node is a leaf when the fuzz stream says so, or when no
			// later index remains for both children.
			if next()%3 == 0 || i+2 >= nnodes {
				m.nodes = append(m.nodes, cnode{left: gi, right: gi})
				m.value = append(m.value, math.Float64frombits(next()))
				if (i == 0 || depth[i] > 0) && depth[i] > steps {
					steps = depth[i]
				}
				continue
			}
			span := nnodes - (i + 1)
			l := i + 1 + int(next()%uint64(span))
			r := i + 1 + int(next()%uint64(span))
			f := int(next() % uint64(nfeat))
			m.nodes = append(m.nodes, cnode{
				thresh: math.Float64frombits(next()),
				feat:   int32(f),
				left:   root + int32(l),
				right:  root + int32(r),
			})
			m.value = append(m.value, 0)
			m.fmask[t*m.maskWords()+f>>6] |= 1 << (uint(f) & 63)
			if i == 0 || depth[i] > 0 {
				for _, c := range []int{l, r} {
					if depth[i]+1 > depth[c] {
						depth[c] = depth[i] + 1
					}
				}
			}
		}
		m.off = append(m.off, int32(len(m.nodes)))
		m.steps = append(m.steps, steps)
	}
	x := make([]float64, nfeat)
	for i := range x {
		x[i] = math.Float64frombits(next())
	}
	return m, x
}

// FuzzPredict drives the fixed-step walks over adversarial ensembles:
// arbitrary shapes (empty, single-leaf, skewed DAG-ish child fan-in),
// arbitrary float bit patterns in thresholds, values, and inputs. Every
// model must pass the structural sanity check, Predict must agree with the
// naive leaf-test walk on every bit, and the packed-pair path walk with the
// scalar one.
func FuzzPredict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 256))
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, x := fuzzBuildModel(data)
		if err := m.compiledSanity(); err != nil {
			t.Fatalf("sanity: %v", err)
		}
		want := m.naivePredict(x)
		got := m.Predict(x)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("Predict mismatch: naive %x, fixed-step %x", math.Float64bits(want), math.Float64bits(got))
		}
		// Path walkers: scalar and packed-pair forms must agree with the
		// naive per-tree walk on values, and with each other on masks.
		items := make([]int64, 0, 2*m.NumTrees())
		for tr := 0; tr < m.NumTrees(); tr++ {
			v, msk := m.PredictTreePath(tr, x)
			if math.Float64bits(v) != math.Float64bits(m.leafWalk(tr, x)) {
				t.Fatalf("tree %d: PredictTreePath value differs from the naive walk", tr)
			}
			if msk&1 == 0 {
				t.Fatalf("tree %d: path mask %#x misses the root", tr, msk)
			}
			items = append(items, PackPair(int32(tr), 0), PackPair(int32(tr), 0))
		}
		vals := make([]float64, len(items))
		masks := make([]uint64, len(items))
		m.PredictPairsPath(items, x, vals, masks)
		for j, it := range items {
			v, msk := m.PredictTreePath(int(PairTree(it)), x)
			if math.Float64bits(vals[j]) != math.Float64bits(v) || masks[j] != msk {
				t.Fatalf("item %d (tree %d): PredictPairsPath (%x, %#x), PredictTreePath (%x, %#x)",
					j, PairTree(it), math.Float64bits(vals[j]), masks[j], math.Float64bits(v), msk)
			}
		}
	})
}
