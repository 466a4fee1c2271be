package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gramScalar is the reference RBF Gram loop: dist2Lanes and math.Exp for
// every entry, the code the vector kernel must reproduce bit for bit.
func gramScalar(vecs [][]float64, gamma float64) *Matrix {
	n := len(vecs)
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, math.Exp(-gamma*dist2Lanes(vecs[i], vecs[j])))
		}
	}
	return m
}

// kernelTestVecs draws n points of dimension d, a fifth of them pushed far
// out so their entries leave the vector kernel's window (exponents below
// -708: subnormal and zero results) in blocks mixed with ordinary ones.
func kernelTestVecs(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		scale := 1.0
		if rng.Intn(5) == 0 {
			scale = 12 + 10*rng.Float64()
		}
		v := make([]float64, d)
		for k := range v {
			v[k] = rng.NormFloat64() * scale
		}
		vecs[i] = v
	}
	return vecs
}

// TestGramRBFMatchesScalar pins the RBF Gram fast path (the vector kernel
// where the CPU has one) to the scalar loop, for every dimension 1..24
// (every residue of the 4-lane distance and its serial tail) and for
// orders around the kernel's 4-column blocks and the TED/BTED batch sizes,
// at 1, 2 and 4 workers. The far points of kernelTestVecs make some
// blocks fall back to math.Exp.
func TestGramRBFMatchesScalar(t *testing.T) {
	t.Logf("vector RBF kernel enabled: %v", gramFMA())
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 500, 640}
	for d := 1; d <= 24; d++ {
		gamma := 1 / float64(d)
		for _, n := range sizes {
			vecs := kernelTestVecs(n, d, int64(100*d+n))
			want := gramScalar(vecs, gamma)
			for _, workers := range []int{1, 2, 4} {
				if n >= 500 && workers == 4 && d%4 != 0 {
					continue // the large orders at 4 workers on every 4th dimension only
				}
				got := GramMatrixParallel(vecs, RBFKernel{Gamma: gamma}, workers)
				for e := range want.Data {
					if math.Float64bits(got.Data[e]) != math.Float64bits(want.Data[e]) {
						t.Fatalf("d=%d n=%d workers=%d: entry (%d, %d) = %x, scalar %x",
							d, n, workers, e/n, e%n, math.Float64bits(got.Data[e]), math.Float64bits(want.Data[e]))
					}
				}
			}
		}
	}
}

// TestLaneDotRowsMatchesGeneric pins the 4-row grouping of mulVecRows to
// laneDotGeneric per row: every length mod 8 (and a long one), strides
// longer than the row, and masks that leave 0-3 rows over after the last
// group or split groups across gaps.
func TestLaneDotRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	masks := map[string]func(i int) bool{
		"none":     nil,
		"all":      func(int) bool { return true },
		"every3rd": func(i int) bool { return i%3 == 0 },
		"prefix":   func(i int) bool { return i < 5 },
		"random":   func(int) bool { return rng.Intn(2) == 0 },
	}
	for _, l := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 64, 127, 500} {
		for _, extra := range []int{0, 3} {
			stride := l + extra
			for _, rows := range []int{1, 3, 4, 5, 11, 37} {
				data := make([]float64, rows*stride+l)
				for i := range data {
					data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
				x := make([]float64, l)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for name, mask := range masks {
					var skip []bool
					if mask != nil {
						skip = make([]bool, rows)
						for i := range skip {
							skip[i] = mask(i)
						}
					}
					dst := make([]float64, rows)
					for i := range dst {
						dst[i] = -42
					}
					LaneDotRows(dst, data, stride, x, skip)
					for i := range dst {
						want := laneDotGeneric(data[i*stride:i*stride+l], x)
						if skip != nil && skip[i] {
							want = -42
						}
						if math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("len=%d stride=%d rows=%d mask=%s: row %d = %x, want %x",
								l, stride, rows, name, i, math.Float64bits(dst[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestLaneDotRowsRejectsShortData: a stride shorter than x or data that
// does not reach the last row's end is a programmer error.
func TestLaneDotRowsRejectsShortData(t *testing.T) {
	for _, tc := range []struct{ rows, stride, lx, data int }{
		{2, 3, 4, 100}, // stride < len(x)
		{3, 4, 4, 11},  // last row ends at 12
	} {
		t.Run(fmt.Sprintf("%+v", tc), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			LaneDotRows(make([]float64, tc.rows), make([]float64, tc.data), tc.stride, make([]float64, tc.lx), nil)
		})
	}
}
