package active

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/space"
)

func TestTEDSelectsFromAllClusters(t *testing.T) {
	// Three tight clusters; TED with m=3 should pick one point per cluster.
	var feats [][]float64
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	rng := rand.New(rand.NewSource(1))
	for _, c := range centers {
		for i := 0; i < 10; i++ {
			feats = append(feats, []float64{c[0] + 0.1*rng.NormFloat64(), c[1] + 0.1*rng.NormFloat64()})
		}
	}
	idx := TED(feats, 0.1, 3, linalg.RBFKernel{Gamma: 0.05})
	if len(idx) != 3 {
		t.Fatalf("selected %d, want 3", len(idx))
	}
	seen := make(map[int]bool)
	for _, i := range idx {
		seen[i/10] = true
	}
	if len(seen) != 3 {
		t.Fatalf("TED picked from %d clusters, want 3 (indices %v)", len(seen), idx)
	}
}

func TestTEDNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	feats := make([][]float64, 40)
	for i := range feats {
		feats[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	idx := TED(feats, 0.1, 20, linalg.RBFKernel{Gamma: 0.3})
	seen := make(map[int]bool)
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestTEDEdgeCases(t *testing.T) {
	if got := TED(nil, 0.1, 5, linalg.LinearKernel{}); got != nil {
		t.Fatal("empty input should return nil")
	}
	feats := [][]float64{{1}, {2}}
	if got := TED(feats, 0.1, 0, linalg.LinearKernel{}); got != nil {
		t.Fatal("m=0 should return nil")
	}
	got := TED(feats, 0.1, 10, linalg.LinearKernel{})
	if len(got) != 2 {
		t.Fatalf("m>n should return all, got %d", len(got))
	}
}

func TestTEDDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	feats := make([][]float64, 30)
	for i := range feats {
		feats[i] = []float64{rng.Float64(), rng.Float64()}
	}
	a := TED(feats, 0.1, 10, linalg.RBFKernel{Gamma: 1})
	b := TED(feats, 0.1, 10, linalg.RBFKernel{Gamma: 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TED must be deterministic")
		}
	}
}

func TestStandardize(t *testing.T) {
	X := [][]float64{{1, 5, 7}, {3, 5, 9}, {5, 5, 11}}
	standardize(X)
	for j := 0; j < 3; j++ {
		mean, varsum := 0.0, 0.0
		for i := range X {
			mean += X[i][j]
		}
		mean /= 3
		for i := range X {
			varsum += (X[i][j] - mean) * (X[i][j] - mean)
		}
		if math.Abs(mean) > 1e-12 {
			t.Fatalf("col %d mean %v", j, mean)
		}
		if j == 1 {
			if varsum != 0 {
				t.Fatal("constant column should be zeroed")
			}
		} else if math.Abs(varsum/3-1) > 1e-9 {
			t.Fatalf("col %d variance %v", j, varsum/3)
		}
	}
	standardize(nil) // must not panic
}

func TestEmbedViews(t *testing.T) {
	sp := space.New(
		space.NewSplitKnob("tile", 16, 2),
		space.NewEnumKnob("u", 0, 512, 1500),
	)
	rng := rand.New(rand.NewSource(4))
	cfgs := sp.RandomSample(10, rng)
	v := Embed(cfgs, ViewKnobValues)
	if len(v) != 10 || len(v[0]) != sp.FeatureDim() {
		t.Fatalf("value view shape %dx%d", len(v), len(v[0]))
	}
	iv := Embed(cfgs, ViewKnobIndices)
	if len(iv[0]) != sp.NumKnobs() {
		t.Fatalf("index view dim %d", len(iv[0]))
	}
	if Embed(nil, ViewKnobValues) != nil {
		t.Fatal("empty embed should be nil")
	}
}

func TestBTEDBasics(t *testing.T) {
	sp := space.New(
		space.NewSplitKnob("tile_a", 64, 4),
		space.NewSplitKnob("tile_b", 56, 4),
		space.NewEnumKnob("u", 0, 512, 1500),
	)
	p := BTEDParams{M: 100, M0: 16, B: 4}
	rng := rand.New(rand.NewSource(5))
	got := BTED(sp, p, rng)
	if len(got) != 16 {
		t.Fatalf("BTED returned %d configs, want 16", len(got))
	}
	seen := make(map[uint64]bool)
	for _, c := range got {
		f := c.Flat()
		if seen[f] {
			t.Fatal("duplicate config in BTED set")
		}
		seen[f] = true
	}
}

func TestBTEDMoreDiverseThanRandom(t *testing.T) {
	sp := space.New(
		space.NewSplitKnob("tile_a", 128, 4),
		space.NewSplitKnob("tile_b", 112, 4),
		space.NewEnumKnob("u", 0, 512, 1500),
		space.NewEnumKnob("e", 0, 1),
	)
	meanMinDist := func(cfgs []space.Config) float64 {
		emb := Embed(cfgs, ViewKnobValues)
		total := 0.0
		for i := range emb {
			min := math.Inf(1)
			for j := range emb {
				if i == j {
					continue
				}
				if d := linalg.Dist(emb[i], emb[j]); d < min {
					min = d
				}
			}
			total += min
		}
		return total / float64(len(emb))
	}
	p := BTEDParams{M: 200, M0: 24, B: 4}
	wins := 0
	rounds := 6
	for r := 0; r < rounds; r++ {
		rngA := rand.New(rand.NewSource(int64(10 + r)))
		rngB := rand.New(rand.NewSource(int64(50 + r)))
		bted := meanMinDist(BTED(sp, p, rngA))
		random := meanMinDist(RandomInit(sp, 24, rngB))
		if bted > random {
			wins++
		}
	}
	if wins < 5 {
		t.Fatalf("BTED beat random diversity only %d/%d rounds", wins, rounds)
	}
}

func TestBTEDParamDefaults(t *testing.T) {
	p := BTEDParams{}.normalized(10)
	if p.M != 500 || p.M0 != 64 || p.B != 10 || p.Kernel == nil {
		t.Fatalf("defaults wrong: %+v", p)
	}
	d := DefaultBTEDParams()
	if d.M != 500 || d.M0 != 64 || d.B != 10 {
		t.Fatalf("paper defaults wrong: %+v", d)
	}
}

func TestBTEDWithIndicesViewAndDistanceKernel(t *testing.T) {
	// The paper-literal configuration must also produce a full set.
	sp := space.New(
		space.NewSplitKnob("tile_a", 64, 4),
		space.NewEnumKnob("u", 0, 512, 1500),
	)
	p := BTEDParams{M: 80, M0: 12, B: 3, View: ViewKnobIndices, Kernel: linalg.DistanceKernel{}}
	rng := rand.New(rand.NewSource(6))
	got := BTED(sp, p, rng)
	if len(got) != 12 {
		t.Fatalf("literal BTED returned %d", len(got))
	}
}
