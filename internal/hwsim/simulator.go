package hwsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Measurement is the result of one simulated on-chip run, mirroring what
// AutoTVM's measure loop returns to the tuner.
type Measurement struct {
	Valid  bool
	Error  string  // populated when the config failed to launch
	TimeMS float64 // measured kernel time, with run-to-run noise
	GFLOPS float64 // achieved throughput; 0 for invalid configs
}

// Simulator is the stateful measurement environment: it owns the noise RNG
// and counts measurements (the experimental budget currency of the paper).
// It is safe for concurrent use.
type Simulator struct {
	est Estimator

	mu    sync.Mutex
	rng   *rand.Rand
	count int64
}

// NewSimulator builds a simulator on the device with a deterministic
// measurement-noise stream.
func NewSimulator(dev Device, seed int64) *Simulator {
	if err := dev.Validate(); err != nil {
		//lint:ignore panicpath constructor invariant: an invalid Device is a programmer error caught before any experiment runs
		panic(err)
	}
	return &Simulator{est: Estimator{Dev: dev}, rng: rand.New(rand.NewSource(seed))}
}

// NewSimulatorWith builds a simulator with explicit estimator settings
// (ruggedness / noise scale), used by ablation experiments.
func NewSimulatorWith(est Estimator, seed int64) *Simulator {
	if err := est.Dev.Validate(); err != nil {
		//lint:ignore panicpath constructor invariant: an invalid Device is a programmer error caught before any experiment runs
		panic(err)
	}
	return &Simulator{est: est, rng: rand.New(rand.NewSource(seed))}
}

// Estimator exposes the underlying deterministic model.
func (s *Simulator) Estimator() Estimator { return s.est }

// Device returns the simulated device.
func (s *Simulator) Device() Device { return s.est.Dev }

// MeasureCount returns how many measurements have been issued, the cost
// metric of Fig. 5(a).
func (s *Simulator) MeasureCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// ResetCount zeroes the measurement counter (between per-task experiments).
func (s *Simulator) ResetCount() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count = 0
}

// Measure deploys (workload, config) once and returns the noisy result.
// Invalid configurations consume budget and return an error measurement,
// exactly as failed on-chip compilations do under AutoTVM. The noise draw
// comes from the simulator's shared stream, so results depend on the global
// measurement order; order-independent callers use MeasureSeeded.
func (s *Simulator) Measure(w tensor.Workload, c space.Config) Measurement {
	s.mu.Lock()
	s.count++
	z := s.rng.NormFloat64()
	s.mu.Unlock()
	return s.finish(w, c, z)
}

// MeasureSeeded deploys (workload, config) once like Measure, but draws the
// run-to-run noise from the explicit per-call seed instead of the shared
// stream. Two calls with the same (workload, config, seed) return bit-equal
// measurements no matter how many other measurements ran in between or on
// which goroutine — the property the deterministic parallel measurement
// engine is built on (see DESIGN.md, "Seed splitting"). The measurement
// counter is still shared and still increments. The noise draw is
// rand.New(rand.NewSource(noiseSeed)).NormFloat64() bit for bit, taken
// from rng.Lazy, which computes only the generator words the draw reads
// (two per raw value) instead of seeding all 607.
func (s *Simulator) MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) Measurement {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	z := rand.New(rng.NewLazy(noiseSeed)).NormFloat64()
	return s.finish(w, c, z)
}

// finish layers the noise draw z on the deterministic estimate.
func (s *Simulator) finish(w tensor.Workload, c space.Config, z float64) Measurement {
	e := s.est.Estimate(w, c)
	if !e.Valid {
		return Measurement{Valid: false, Error: e.Reason}
	}
	t := e.TimeMS * math.Exp(e.Sigma*z)
	return Measurement{
		Valid:  true,
		TimeMS: t,
		GFLOPS: float64(w.FLOPs()) / (t * 1e6),
	}
}

// NoiseSeed derives the per-measurement noise seed of a configuration from
// the run seed: a splitmix64-style finalizer over (runSeed, flat). The value
// depends only on its two inputs — never on measurement order or worker
// assignment — which makes every seeded measurement of a run reproducible
// in isolation.
func NoiseSeed(runSeed int64, flat uint64) int64 {
	x := uint64(runSeed) ^ (flat * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Deployment binds one tuned task to the number of graph nodes that share
// it; end-to-end latency sums Count copies of the kernel.
type Deployment struct {
	Workload tensor.Workload
	Config   space.Config
	Count    int
}

// FrameworkOverheadMS is the fixed per-inference runtime overhead (graph
// executor dispatch, untuned glue operators such as pooling and softmax).
const FrameworkOverheadMS = 0.05

// NetworkLatency simulates `runs` end-to-end inferences of a deployed model
// and returns the mean latency (ms) and the population variance across runs
// — the two columns of the paper's Table I (600 runs there). It returns an
// error if any deployment is infeasible.
func (s *Simulator) NetworkLatency(deps []Deployment, runs int) (meanMS, variance float64, err error) {
	if runs <= 0 {
		return 0, 0, fmt.Errorf("hwsim: runs must be positive, got %d", runs)
	}
	type node struct {
		t     float64
		sigma float64
		n     int
	}
	nodes := make([]node, 0, len(deps))
	for _, d := range deps {
		e := s.est.Estimate(d.Workload, d.Config)
		if !e.Valid {
			return 0, 0, fmt.Errorf("hwsim: deployment of %s is infeasible: %s", d.Workload.Key(), e.Reason)
		}
		cnt := d.Count
		if cnt <= 0 {
			cnt = 1
		}
		nodes = append(nodes, node{t: e.TimeMS, sigma: e.Sigma, n: cnt})
	}
	var acc stats.Running
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := 0; r < runs; r++ {
		total := FrameworkOverheadMS * math.Exp(0.02*s.rng.NormFloat64())
		for _, nd := range nodes {
			for k := 0; k < nd.n; k++ {
				total += nd.t * math.Exp(nd.sigma*s.rng.NormFloat64())
			}
		}
		acc.Add(total)
	}
	return acc.Mean(), acc.Variance(), nil
}

// BestPossibleGFLOPS returns the best noise-free Estimate over n uniformly
// random configs of sp drawn with the given seed: a sampled lower bound on
// the space's true optimum, not an exhaustive or neighborhood search.
// Used only by diagnostics and tests, never by the tuners.
func (s *Simulator) BestPossibleGFLOPS(w tensor.Workload, sp *space.Space, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	best := 0.0
	for i := 0; i < n; i++ {
		e := s.est.Estimate(w, sp.Random(rng))
		if e.Valid && e.GFLOPS > best {
			best = e.GFLOPS
		}
	}
	return best
}
