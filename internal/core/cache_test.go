package core

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/tuner"
)

// TestPipelineCacheSavesRemeasurements is the core-layer memoization
// contract: every re-measured top-K config's repeat 0 reuses the tuning
// run's noise seed, so layering a SharedCache over the backend must issue
// strictly fewer raw simulator calls than the uncached pipeline while
// leaving the deployment bit-identical.
func TestPipelineCacheSavesRemeasurements(t *testing.T) {
	opts := quickPipelineOpts(24)

	run := func(b backend.Backend) *Deployment {
		dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.NewAutoTVM(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}

	raw := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 31))
	plain := run(raw)

	cachedRaw := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 31))
	sc := backend.NewSharedCache(0)
	cached := run(backend.WithShared(cachedRaw, sc))

	rawCalls, cachedCalls := raw.Simulator().MeasureCount(), cachedRaw.Simulator().MeasureCount()
	if cachedCalls >= rawCalls {
		t.Fatalf("cache saved nothing: %d raw calls vs %d uncached", cachedCalls, rawCalls)
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
