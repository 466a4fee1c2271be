package core

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/tuner"
)

// TestPipelineCacheSavesRemeasurements is the core-layer memoization
// contract: with re-measure-top-K enabled, every top-K config's repeat 0
// reuses the tuning run's noise seed, so layering a SharedCache over the backend
// must issue strictly fewer raw simulator calls than the uncached pipeline
// while leaving the deployment bit-identical.
func TestPipelineCacheSavesRemeasurements(t *testing.T) {
	opts := quickPipelineOpts(24)
	opts.ReMeasureTopK = 4
	opts.ReMeasureRepeats = 3

	run := func(b backend.Backend) *Deployment {
		dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.NewAutoTVM(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}

	rawCount := backend.NewCounting(backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 31)))
	plain := run(rawCount)

	cachedCount := backend.NewCounting(backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 31)))
	sc := backend.NewSharedCache(0)
	cached := run(backend.WithShared(cachedCount, sc))

	if cachedCount.Calls() >= rawCount.Calls() {
		t.Fatalf("cache saved nothing: %d raw calls vs %d uncached", cachedCount.Calls(), rawCount.Calls())
	}
	if sc.Stats().Hits == 0 {
		t.Fatal("re-measure-top-K produced no cache hits")
	}
	if plain.LatencyMS != cached.LatencyMS || plain.Variance != cached.Variance ||
		plain.TotalMeasurements != cached.TotalMeasurements {
		t.Fatalf("memoization changed the deployment: %v/%v vs %v/%v",
			plain.LatencyMS, plain.Variance, cached.LatencyMS, cached.Variance)
	}
	for i := range plain.Tasks {
		if !plain.Tasks[i].Deployed.Equal(cached.Tasks[i].Deployed) {
			t.Fatalf("task %s deployed different configs", plain.Tasks[i].Task.Name)
		}
	}
}
