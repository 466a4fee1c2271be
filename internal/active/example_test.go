package active_test

import (
	"fmt"
	"math/rand"

	"repro/internal/active"
	"repro/internal/hwsim"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
)

// ExampleBTED shows the paper's initialization stage: Algorithm 2 distills
// a diverse 16-point set from a 90M-configuration space.
func ExampleBTED() {
	w := tensor.Conv2D(1, 64, 56, 56, 64, 3, 1, 1)
	sp, _ := space.ForWorkload(w)
	p := active.DefaultBTEDParams()
	p.M0 = 16
	init := active.BTED(sp, p, rand.New(rand.NewSource(1)))
	fmt.Println("initial configs:", len(init))
	// Output:
	// initial configs: 16
}

// ExampleBAORun runs the full advanced active-learning flow against the
// simulated GPU: BTED initialization followed by Bootstrap-guided adaptive
// optimization. The driver owns the observations: each Step reads them and
// records its one deployment through the measure callback.
func ExampleBAORun() {
	w := tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1)
	sp, _ := space.ForWorkload(w)
	sim := hwsim.NewSimulator(hwsim.GTX1080Ti(), 7)
	src := rng.New(7)

	var samples []active.Sample
	measured := make(map[uint64]bool)
	measure := func(c space.Config) (float64, bool) {
		m := sim.Measure(w, c)
		samples = append(samples, active.Sample{Config: c, GFLOPS: m.GFLOPS, Valid: m.Valid})
		measured[c.Flat()] = true
		return m.GFLOPS, m.Valid
	}
	bp := active.DefaultBTEDParams()
	bp.M0 = 16
	for _, c := range active.BTED(sp, bp, src.Rand()) {
		measure(c)
	}
	initBest, _ := active.Best(samples)
	run := active.NewBAORun(sp, active.NewXGBTrainer(), samples, active.DefaultBAOParams())
	for step := 0; step < 64 && run.Step(src, samples, measured, measure); step++ {
	}
	best, ok := active.Best(samples)
	fmt.Println("measurements:", len(samples))
	fmt.Println("improved:", ok && best.GFLOPS > initBest.GFLOPS)
	// Output:
	// measurements: 80
	// improved: true
}
