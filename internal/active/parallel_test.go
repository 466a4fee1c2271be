package active

import (
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// TestBootstrapSelectParallelWorkerInvariance: the selected candidate index
// and the caller's RNG stream position must be identical for every worker
// count, since all randomness is drawn serially up front.
func TestBootstrapSelectParallelWorkerInvariance(t *testing.T) {
	sp := quadSpace()
	setup := func() ([]Sample, []space.Config, *rand.Rand) {
		rng := rand.New(rand.NewSource(21))
		samples := measureInit(sp, 24, rng, quadMeasure)
		cands := sp.RandomSample(60, rng)
		return samples, cands, rng
	}

	refIdx := -1
	var refNext int64
	for _, workers := range []int{1, 4, 8} {
		samples, cands, rng := setup()
		got, err := BootstrapSelectParallel(NewXGBTrainer(), samples, cands, 3, workers, rng)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		next := rng.Int63()
		if workers == 1 {
			refIdx, refNext = got, next
			continue
		}
		if got != refIdx {
			t.Fatalf("workers=%d picked %d, workers=1 picked %d", workers, got, refIdx)
		}
		if next != refNext {
			t.Fatalf("workers=%d left the RNG stream at a different position", workers)
		}
	}
}

// TestBootstrapSelectMatchesParallelSerial pins that the public
// BootstrapSelect (pool sized by par.Workers) agrees with an explicit
// single-worker run.
func TestBootstrapSelectMatchesParallelSerial(t *testing.T) {
	sp := quadSpace()
	rng1 := rand.New(rand.NewSource(22))
	s1 := measureInit(sp, 20, rng1, quadMeasure)
	c1 := sp.RandomSample(40, rng1)
	rng2 := rand.New(rand.NewSource(22))
	s2 := measureInit(sp, 20, rng2, quadMeasure)
	c2 := sp.RandomSample(40, rng2)

	a, err := BootstrapSelect(NewXGBTrainer(), s1, c1, 2, rng1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapSelectParallel(NewXGBTrainer(), s2, c2, 2, 1, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("BootstrapSelect picked %d, serial BootstrapSelectParallel picked %d", a, b)
	}
}

// tinySpace has only 8 configurations — smaller than any realistic budget.
func tinySpace() *space.Space {
	return space.New(
		space.NewEnumKnob("a", 0, 1),
		space.NewEnumKnob("b", 0, 1),
		space.NewEnumKnob("c", 0, 1),
	)
}

// TestBAOTinySpaceNoDuplicates is the regression test for the budget-burn
// bug: when the space is exhausted mid-run, randomUnmeasured reports !ok
// and Step deploys nothing instead of re-measuring known configurations. The
// returned samples must contain every configuration at most once.
func TestBAOTinySpaceNoDuplicates(t *testing.T) {
	sp := tinySpace()
	src := rng.New(31)
	flat := func(space.Config) (float64, bool) { return 1.0, true }
	init := measureInit(sp, 3, src.Rand(), flat)
	samples := runBAO(sp, NewXGBTrainer(), init, flat, BAOParams{Gamma: 1}, 50, src)

	seen := make(map[uint64]bool)
	for _, s := range samples {
		f := s.Config.Flat()
		if seen[f] {
			t.Fatalf("BAO returned duplicate config %d on an exhausted space", f)
		}
		seen[f] = true
	}
	if n := uint64(len(samples)); n > sp.Size() {
		t.Fatalf("BAO returned %d samples from a %d-config space", n, sp.Size())
	}
}

// TestRandomUnmeasuredExhausted pins the (Config, ok) contract directly.
func TestRandomUnmeasuredExhausted(t *testing.T) {
	sp := tinySpace()
	rng := rand.New(rand.NewSource(32))
	measured := make(map[uint64]bool)
	for i := uint64(0); i < sp.Size(); i++ {
		measured[i] = true
	}
	if _, ok := randomUnmeasured(sp, measured, rng); ok {
		t.Fatal("randomUnmeasured returned ok on a fully measured space")
	}
	delete(measured, 3)
	c, ok := randomUnmeasured(sp, measured, rng)
	if !ok || c.Flat() != 3 {
		t.Fatalf("randomUnmeasured = (%v, %v), want the single unmeasured config 3", c.Flat(), ok)
	}
}
