package rng

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// lazyEdgeSeeds are the seeds where math/rand's normalization branches:
// zero (replaced by a fixed seed), ±(2^31−1) and its multiples (which
// reduce to zero too), their neighbours, and the int64 extremes.
func lazyEdgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, k := range []int64{1, 2, 3, 7, 1 << 20, math.MaxInt64 / int32max} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*int32max+d, -k*int32max+d)
		}
	}
	return seeds
}

// TestLazyNormFloat64MatchesStdlib: the one-draw use MeasureSeeded makes
// must equal math/rand's for every seed, checked on the edge seeds and on
// 10^6 seeds from a splitmix64 sequence (the shape of hwsim.NoiseSeed).
func TestLazyNormFloat64MatchesStdlib(t *testing.T) {
	check := func(seed int64) bool {
		want := rand.New(rand.NewSource(seed)).NormFloat64()
		got := rand.New(NewLazy(seed)).NormFloat64()
		return math.Float64bits(got) == math.Float64bits(want)
	}
	for _, seed := range lazyEdgeSeeds() {
		if !check(seed) {
			t.Fatalf("seed %d: NormFloat64 differs from math/rand", seed)
		}
	}
	const total, parts = 1 << 20, 4
	type miss struct {
		seed  int64
		found bool
	}
	bad := make([]miss, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := uint64(p) * 0x9E3779B97F4A7C15
			for i := 0; i < total/parts; i++ {
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
				z = (z ^ z>>27) * 0x94D049BB133111EB
				seed := int64(z ^ z>>31)
				if !check(seed) {
					bad[p] = miss{seed, true}
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, m := range bad {
		if m.found {
			t.Fatalf("seed %d: NormFloat64 differs from math/rand", m.seed)
		}
	}
}

// TestLazyStreamMatchesStdlib runs the stream well past draw 273, where
// Lazy hands over to a seeded math/rand source, through every entry point
// and the rand.Rand methods built on them.
func TestLazyStreamMatchesStdlib(t *testing.T) {
	for _, seed := range append(lazyEdgeSeeds(), 17, 1<<40, -987654321) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewLazy(seed))
		for i := 0; i < 1500; i++ {
			switch i % 5 {
			case 0, 3:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 1:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 2:
				if w, g := want.NormFloat64(), got.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 4:
				if w, g := want.Intn(1000), got.Intn(1000); w != g {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestLazyFallbackEveryDrawCount hands over to math/rand after every draw
// count around the lag, so a skip count off by one fails.
func TestLazyFallbackEveryDrawCount(t *testing.T) {
	for _, seed := range []int64{3, -41, math.MaxInt64} {
		for pre := rngTap - 3; pre <= rngTap+3; pre++ {
			want := rand.NewSource(seed).(rand.Source64)
			got := NewLazy(seed)
			for i := 0; i < pre+5; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestLazyCookedTable pins all 607 words of the copied table, including
// the 61 that Lazy never reads itself: it runs math/rand's generator from
// the state Lazy's word computes and compares 2000 draws (every word is
// read on its own within them) with math/rand's stream.
func TestLazyCookedTable(t *testing.T) {
	for _, seed := range []int64{1, -7, 123456789} {
		s := NewLazy(seed)
		var vec [rngLen]int64
		for i := range vec {
			vec[i] = s.word(i)
		}
		want := rand.NewSource(seed).(rand.Source64)
		tap, feed := 0, rngLen-rngTap
		for i := 0; i < 2000; i++ {
			tap = (tap + rngLen - 1) % rngLen
			feed = (feed + rngLen - 1) % rngLen
			vec[feed] += vec[tap]
			if w, g := want.Uint64(), uint64(vec[feed]); w != g {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, w)
			}
		}
	}
}

// TestLazySeedRestarts: Seed restarts the stream, also after the hand-over.
func TestLazySeedRestarts(t *testing.T) {
	s := NewLazy(5)
	for i := 0; i < 400; i++ {
		s.Int63()
	}
	s.Seed(9)
	want := rand.NewSource(9)
	for i := 0; i < 300; i++ {
		if w, g := want.Int63(), s.Int63(); w != g {
			t.Fatalf("draw %d after Seed: %d != %d", i, g, w)
		}
	}
}

// BenchmarkNormFloat64Seeded is the per-measurement noise draw of
// hwsim.MeasureSeeded: a fresh seed, one NormFloat64.
func BenchmarkNormFloat64Seeded(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.New(NewLazy(int64(i))).NormFloat64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.New(rand.NewSource(int64(i))).NormFloat64()
		}
	})
}
