package active

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/space"
)

// benchFeats builds n standardized d-dimensional feature vectors, the shape
// TED sees after Embed: paper-default batches are M=500 points.
func benchFeats(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	standardize(X)
	return X
}

// BenchmarkTED exercises Algorithm 1 at the paper's batch shape: one greedy
// TED pass selecting M0=64 representatives from an M=500-point batch, at 8
// feature dimensions and at the dimensions of the real spaces: 14
// (depthwise conv2d, which reaches the Gram kernel's serial dimension
// tail) and 20 (conv2d).
func BenchmarkTED(b *testing.B) {
	for _, d := range []int{8, 14, 20} {
		feats := benchFeats(500, d, 1)
		k := linalg.RBFKernel{Gamma: 1.0 / float64(d)}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := TED(feats, 0.1, 64, k); len(got) != 64 {
					b.Fatalf("selected %d", len(got))
				}
			}
		})
	}
}

// BenchmarkTEDReference runs the pre-optimization Algorithm 1 (full
// column-norm pass plus in-place rank-1 downdate per pick) on the same
// shape, so the incremental kernel's speedup can be read off one benchmark
// run on the same machine under the same load.
func BenchmarkTEDReference(b *testing.B) {
	feats := benchFeats(500, 8, 1)
	k := linalg.RBFKernel{Gamma: 1.0 / 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tedReference(feats, 0.1, 64, k); len(got) != 64 {
			b.Fatalf("selected %d", len(got))
		}
	}
}

// BenchmarkBTED runs the full Algorithm 2 initialization (B batches plus the
// final union pass) over a small knob space (10 feature dimensions) and
// over the conv2d (20) and depthwise conv2d (14) templates' knob shapes.
func BenchmarkBTED(b *testing.B) {
	spaces := []*space.Space{
		space.New(
			space.NewSplitKnob("tile_a", 64, 4),
			space.NewSplitKnob("tile_b", 56, 4),
			space.NewEnumKnob("u", 0, 512, 1500),
			space.NewEnumKnob("e", 0, 1),
		),
		space.New(
			space.NewSplitKnob("tile_f", 128, 4),
			space.NewSplitKnob("tile_y", 56, 4),
			space.NewSplitKnob("tile_x", 56, 4),
			space.NewEnumKnob("auto_unroll_max_step", 0, 256, 1500),
			space.NewEnumKnob("unroll_explicit", 0, 1),
		),
		space.New(
			space.NewSplitKnob("tile_f", 128, 4),
			space.NewSplitKnob("tile_y", 56, 4),
			space.NewSplitKnob("tile_x", 56, 4),
			space.NewSplitKnob("tile_rc", 64, 2),
			space.NewSplitKnob("tile_ry", 3, 2),
			space.NewSplitKnob("tile_rx", 3, 2),
			space.NewEnumKnob("auto_unroll_max_step", 0, 512, 1500),
			space.NewEnumKnob("unroll_explicit", 0, 1),
		),
	}
	p := BTEDParams{M: 500, M0: 64, B: 4}
	for _, sp := range spaces {
		b.Run(fmt.Sprintf("d=%d", sp.FeatureDim()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(7))
				if got := BTED(sp, p, rng); len(got) != 64 {
					b.Fatalf("selected %d", len(got))
				}
			}
		})
	}
}

// BenchmarkStandardize measures the Embed normalization pass on a
// paper-default batch.
func BenchmarkStandardize(b *testing.B) {
	src := benchFeats(500, 8, 2)
	X := make([][]float64, len(src))
	for i := range X {
		X[i] = make([]float64, len(src[i]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range src {
			copy(X[r], src[r])
		}
		standardize(X)
	}
}
