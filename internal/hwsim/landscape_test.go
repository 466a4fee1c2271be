package hwsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
)

// TestLocalJitterSmoothness verifies the central calibration property of
// the simulated landscape: the local component changes little under small
// index moves (neighborhood search can climb it) and much more across
// random config pairs (it carries real structure).
func TestLocalJitterSmoothness(t *testing.T) {
	w := tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var neighborDiff, randomDiff float64
	n := 400
	for i := 0; i < n; i++ {
		a := sp.Random(rng)
		// A one-step neighbor along a random knob.
		b := a.Clone()
		k := rng.Intn(sp.NumKnobs())
		if sp.Knob(k).Len() > 1 {
			if b.Index[k]+1 < sp.Knob(k).Len() {
				b.Index[k]++
			} else {
				b.Index[k]--
			}
		}
		c := sp.Random(rng)
		ja := localJitter(w.Key(), a)
		neighborDiff += math.Abs(ja - localJitter(w.Key(), b))
		randomDiff += math.Abs(ja - localJitter(w.Key(), c))
	}
	neighborDiff /= float64(n)
	randomDiff /= float64(n)
	if neighborDiff*2 > randomDiff {
		t.Fatalf("local jitter not smooth: neighbor diff %.4f vs random diff %.4f",
			neighborDiff, randomDiff)
	}
}

func TestLocalJitterDeterministicAndBounded(t *testing.T) {
	w := tensor.DepthwiseConv2D(1, 128, 56, 56, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		c := sp.Random(rng)
		v1 := localJitter(w.Key(), c)
		v2 := localJitter(w.Key(), c)
		if v1 != v2 {
			t.Fatal("local jitter must be deterministic")
		}
		if math.Abs(v1) > 2.5 {
			t.Fatalf("local jitter %v out of expected range", v1)
		}
	}
	// Workload-dependent: same config index pattern, different workload key.
	w2 := tensor.DepthwiseConv2D(1, 128, 28, 28, 3, 1, 1)
	c := sp.FromFlat(12345)
	if localJitter(w.Key(), c) == localJitter(w2.Key(), c) {
		t.Fatal("local jitter should depend on the workload")
	}
}

func TestLocalJitterEmptyConfig(t *testing.T) {
	if got := localJitter("x", space.Config{}); got != 0 {
		t.Fatalf("empty config jitter = %v", got)
	}
}

// TestLandscapeLocalityPaysOff is the end-to-end statement of the
// calibration: starting from a good config, the best point within a small
// index neighborhood is usually better than the best of an equal number of
// random configs drawn near the same analytic quality — i.e. local
// refinement has signal.
func TestLandscapeLocalityPaysOff(t *testing.T) {
	w := tensor.Conv2D(1, 64, 28, 28, 64, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	est := Estimator{Dev: GTX1080Ti()}
	src := rng.New(3)

	// Find a decent starting config.
	var start space.Config
	bestG := 0.0
	for i := 0; i < 2000; i++ {
		c := sp.Random(src.Rand())
		if e := est.Estimate(w, c); e.Valid && e.GFLOPS > bestG {
			bestG = e.GFLOPS
			start = c
		}
	}
	if bestG == 0 {
		t.Fatal("no valid start found")
	}
	nb := sp.Neighborhood(start, 3, space.NeighborhoodOpts{MaxCandidates: 200}, src)
	if len(nb) == 0 {
		t.Skip("empty neighborhood at the start config")
	}
	improved := 0
	for _, c := range nb {
		if e := est.Estimate(w, c); e.Valid && e.GFLOPS > bestG {
			improved++
		}
	}
	// With a smooth local field some neighbors of a good-but-not-optimal
	// config must improve on it.
	if improved == 0 {
		t.Fatalf("no neighbor of a %0.f-GFLOPS config improves it; landscape has no local signal", bestG)
	}
}

func TestSplitmixMixes(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		v := splitmix(i)
		if seen[v] {
			t.Fatal("splitmix collision in tiny range")
		}
		seen[v] = true
	}
}
