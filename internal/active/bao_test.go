package active

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// quadSpace is a 4-knob space with a smooth peak for optimizer tests.
func quadSpace() *space.Space {
	vals := make([]int, 30)
	for i := range vals {
		vals[i] = i
	}
	return space.New(
		space.NewEnumKnob("a", vals...),
		space.NewEnumKnob("b", vals...),
		space.NewEnumKnob("c", vals...),
		space.NewEnumKnob("d", vals...),
	)
}

// quadGFLOPS peaks at (20, 10, 15, 5) with value 1000.
func quadGFLOPS(c space.Config) float64 {
	target := []float64{20, 10, 15, 5}
	s := 0.0
	for i, v := range c.Index {
		d := float64(v) - target[i]
		s += d * d
	}
	return 1000 * math.Exp(-s/200)
}

func quadMeasure(c space.Config) (float64, bool) { return quadGFLOPS(c), true }

// oracleTrainer ignores the training data and returns an evaluator backed
// by a fixed scoring function; it isolates BAO mechanics from model fit.
type oracleTrainer struct{ score func(x []float64) float64 }

type oracleEval struct{ score func(x []float64) float64 }

func (o oracleEval) Predict(x []float64) float64 { return o.score(x) }

func (o oracleTrainer) Train(_ [][]float64, _ []float64, _ int64) (Evaluator, error) {
	return oracleEval{o.score}, nil
}

// failingTrainer always errors, exercising the random fallback path.
type failingTrainer struct{}

func (failingTrainer) Train(_ [][]float64, _ []float64, _ int64) (Evaluator, error) {
	return nil, errors.New("no model")
}

func measureInit(sp *space.Space, n int, rng *rand.Rand, measure MeasureFunc) []Sample {
	out := make([]Sample, 0, n)
	for _, c := range sp.RandomSample(n, rng) {
		g, ok := measure(c)
		out = append(out, Sample{Config: c, GFLOPS: g, Valid: ok})
	}
	return out
}

func TestBootstrapSelectPicksArgmax(t *testing.T) {
	sp := quadSpace()
	rng := rand.New(rand.NewSource(1))
	samples := measureInit(sp, 20, rng, quadMeasure)
	cands := sp.RandomSample(50, rng)
	// Oracle evaluator scores candidates by the true function: the pick
	// must be the true best candidate regardless of bootstrap resampling.
	tr := oracleTrainer{score: func(x []float64) float64 {
		// Features here are log2(1+v) of enum values; invert to index.
		s := 0.0
		target := []float64{20, 10, 15, 5}
		for i, f := range x {
			v := math.Exp2(f) - 1
			d := v - target[i]
			s += d * d
		}
		return -s
	}}
	got, err := BootstrapSelect(tr, samples, cands, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	bestI, bestV := -1, -1.0
	for i, c := range cands {
		if v := quadGFLOPS(c); v > bestV {
			bestI, bestV = i, v
		}
	}
	if got != bestI {
		t.Fatalf("BootstrapSelect picked %d (%.1f), want %d (%.1f)",
			got, quadGFLOPS(cands[got]), bestI, bestV)
	}
}

func TestBootstrapSelectErrors(t *testing.T) {
	sp := quadSpace()
	rng := rand.New(rand.NewSource(2))
	samples := measureInit(sp, 5, rng, quadMeasure)
	if _, err := BootstrapSelect(NewXGBTrainer(), samples, nil, 2, rng); err == nil {
		t.Fatal("no candidates should error")
	}
	if _, err := BootstrapSelect(NewXGBTrainer(), nil, sp.RandomSample(3, rng), 2, rng); err == nil {
		t.Fatal("no observations should error")
	}
	if _, err := BootstrapSelect(failingTrainer{}, samples, sp.RandomSample(3, rng), 2, rng); err == nil {
		t.Fatal("failing trainer should error")
	}
}

func TestBootstrapSelectGammaDefault(t *testing.T) {
	sp := quadSpace()
	rng := rand.New(rand.NewSource(3))
	samples := measureInit(sp, 10, rng, quadMeasure)
	cands := sp.RandomSample(10, rng)
	if _, err := BootstrapSelect(NewXGBTrainer(), samples, cands, 0, rng); err != nil {
		t.Fatalf("gamma=0 should default to 1: %v", err)
	}
}

// ledger is the test-local driver of a BAORun: like the tuner session it
// owns the observations and the measured set, and its record callback
// appends every deployment.
type ledger struct {
	samples  []Sample
	measured map[uint64]bool
	measure  MeasureFunc
}

func newLedger(init []Sample, measure MeasureFunc) *ledger {
	l := &ledger{samples: append([]Sample(nil), init...), measured: make(map[uint64]bool), measure: measure}
	for _, s := range init {
		l.measured[s.Config.Flat()] = true
	}
	return l
}

func (l *ledger) record(c space.Config) (float64, bool) {
	g, ok := l.measure(c)
	l.samples = append(l.samples, Sample{Config: c, GFLOPS: g, Valid: ok})
	l.measured[c.Flat()] = true
	return g, ok
}

// runBAO steps a fresh BAORun over init for at most steps iterations
// (fewer when the space runs out) and returns every sample in measurement
// order, initialization first.
func runBAO(sp *space.Space, tr EvalTrainer, init []Sample, measure MeasureFunc, p BAOParams, steps int, src *rng.Source) []Sample {
	l := newLedger(init, measure)
	r := NewBAORun(sp, tr, l.samples, p)
	for i := 0; i < steps && r.Step(src, l.samples, l.measured, l.record); i++ {
	}
	return l.samples
}

func TestBAOFindsNearOptimum(t *testing.T) {
	sp := quadSpace()
	src := rng.New(4)
	init := measureInit(sp, 16, src.Rand(), quadMeasure)
	p := BAOParams{Gamma: 2, Tau: 1.5, R: 3}
	samples := runBAO(sp, NewXGBTrainer(), init, quadMeasure, p, 120, src)
	best, ok := Best(samples)
	if !ok {
		t.Fatal("no valid sample")
	}
	initBest, _ := Best(init)
	if best.GFLOPS <= initBest.GFLOPS {
		t.Fatalf("BAO did not improve: init %.1f, final %.1f", initBest.GFLOPS, best.GFLOPS)
	}
	if best.GFLOPS < 900 {
		t.Fatalf("BAO final %.1f, want > 900 (peak 1000)", best.GFLOPS)
	}
}

func TestBAOBeatsRandomSearch(t *testing.T) {
	sp := quadSpace()
	wins := 0
	rounds := 5
	for r := 0; r < rounds; r++ {
		src := rng.New(int64(40 + r))
		init := measureInit(sp, 16, src.Rand(), quadMeasure)
		p := BAOParams{Gamma: 2, Tau: 1.5, R: 3}
		samples := runBAO(sp, NewXGBTrainer(), init, quadMeasure, p, 150, src)
		baoBest, _ := Best(samples)

		rng2 := rand.New(rand.NewSource(int64(140 + r)))
		randBest := 0.0
		for i := 0; i < len(samples); i++ {
			if v := quadGFLOPS(sp.Random(rng2)); v > randBest {
				randBest = v
			}
		}
		if baoBest.GFLOPS >= randBest {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("BAO beat random only %d/%d rounds", wins, rounds)
	}
}

// TestBAOEarlyStopping: early stopping is the driver's. On a constant
// landscape a BAORun keeps deploying while unmeasured configurations
// remain — it has no stopping rule of its own — and its stall counter,
// which only chooses the searching scope, agrees with the driver's count
// of non-improving measurements when the driver stops.
func TestBAOEarlyStopping(t *testing.T) {
	sp := quadSpace()
	src := rng.New(5)
	flat := func(space.Config) (float64, bool) { return 1.0, true }
	init := measureInit(sp, 8, src.Rand(), flat)
	l := newLedger(init, flat)
	r := NewBAORun(sp, NewXGBTrainer(), l.samples, BAOParams{Gamma: 1})
	const earlyStop = 20
	since := 0
	for since < earlyStop {
		best, _ := Best(l.samples)
		if !r.Step(src, l.samples, l.measured, l.record) {
			t.Fatalf("BAO stopped on its own after %d steps", since)
		}
		if last := l.samples[len(l.samples)-1]; last.Valid && last.GFLOPS > best.GFLOPS {
			since = 0
		} else {
			since++
		}
	}
	if iters := len(l.samples) - len(init); iters != earlyStop {
		t.Fatalf("driver stopped after %d iterations, want %d", iters, earlyStop)
	}
	if r.sinceImprove != earlyStop {
		t.Fatalf("BAO stall counter %d, driver counted %d", r.sinceImprove, earlyStop)
	}
}

func TestBAOAllInvalidFallsBack(t *testing.T) {
	sp := quadSpace()
	src := rng.New(6)
	invalid := func(space.Config) (float64, bool) { return 0, false }
	init := measureInit(sp, 8, src.Rand(), invalid)
	samples := runBAO(sp, NewXGBTrainer(), init, invalid, BAOParams{Gamma: 1}, 10, src)
	if len(samples) != len(init)+10 {
		t.Fatalf("BAO with all-invalid measurements ran %d iters", len(samples)-len(init))
	}
	if _, ok := Best(samples); ok {
		t.Fatal("all-invalid run should have no best")
	}
}

func TestBAOFailingTrainerFallsBack(t *testing.T) {
	sp := quadSpace()
	src := rng.New(7)
	init := measureInit(sp, 8, src.Rand(), quadMeasure)
	samples := runBAO(sp, failingTrainer{}, init, quadMeasure, BAOParams{Gamma: 2}, 15, src)
	if len(samples) != len(init)+15 {
		t.Fatal("failing trainer should still complete via random fallback")
	}
}

// TestBAOObserverAndDedup: every Step deploys exactly one configuration
// through the driver's callback, in order, and never one the driver has
// already measured.
func TestBAOObserverAndDedup(t *testing.T) {
	sp := quadSpace()
	src := rng.New(8)
	init := measureInit(sp, 12, src.Rand(), quadMeasure)
	l := newLedger(init, quadMeasure)
	r := NewBAORun(sp, NewXGBTrainer(), l.samples, BAOParams{Gamma: 1})
	for step := 1; step <= 40; step++ {
		if !r.Step(src, l.samples, l.measured, l.record) {
			t.Fatalf("step %d deployed nothing", step)
		}
		if len(l.samples) != len(init)+step {
			t.Fatalf("step %d: ledger holds %d samples, want %d", step, len(l.samples), len(init)+step)
		}
	}
	seen := make(map[uint64]bool)
	for _, s := range l.samples {
		f := s.Config.Flat()
		if seen[f] {
			t.Fatal("BAO re-measured a configuration")
		}
		seen[f] = true
	}
}

func TestRelativeImprovement(t *testing.T) {
	// Trace ends ... y*_{t-2}=90, y*_{t-1}=100 -> r = 0.1.
	r := relativeImprovement([]float64{0, 90, 100}, false)
	if math.Abs(r-0.1) > 1e-12 {
		t.Fatalf("r = %v, want 0.1", r)
	}
	// No improvement -> 0 (< eta, triggers growth).
	if r := relativeImprovement([]float64{0, 100, 100}, false); r != 0 {
		t.Fatalf("flat r = %v", r)
	}
	// Literal ceiling: any positive improvement ceils to 1 (>= eta).
	if r := relativeImprovement([]float64{0, 90, 100}, true); r != 1 {
		t.Fatalf("ceil r = %v, want 1", r)
	}
	if r := relativeImprovement([]float64{0, 100, 100}, true); r != 0 {
		t.Fatalf("ceil flat r = %v, want 0", r)
	}
	// Zero incumbent guards division.
	if r := relativeImprovement([]float64{0, 0, 0}, false); r != 0 {
		t.Fatalf("zero trace r = %v", r)
	}
}

func TestBAOParamsNormalized(t *testing.T) {
	p := BAOParams{}.normalized()
	if p.Gamma != 2 || p.Tau != 1.5 || p.R != 3 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if d := DefaultBAOParams().normalized(); d != p {
		t.Fatalf("paper settings %+v differ from the zero-value defaults %+v", d, p)
	}
}

func TestBestAndBestTrace(t *testing.T) {
	sp := quadSpace()
	rng := rand.New(rand.NewSource(9))
	samples := []Sample{
		{Config: sp.Random(rng), GFLOPS: 5, Valid: true},
		{Config: sp.Random(rng), GFLOPS: 0, Valid: false},
		{Config: sp.Random(rng), GFLOPS: 9, Valid: true},
		{Config: sp.Random(rng), GFLOPS: 7, Valid: true},
	}
	b, ok := Best(samples)
	if !ok || b.GFLOPS != 9 {
		t.Fatalf("Best = %+v", b)
	}
	tr := BestTrace(samples)
	want := []float64{5, 5, 9, 9}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
	if _, ok := Best(nil); ok {
		t.Fatal("empty Best should be !ok")
	}
}

func TestMeanEvaluator(t *testing.T) {
	e := MeanEvaluator{
		oracleEval{func(x []float64) float64 { return 2 }},
		oracleEval{func(x []float64) float64 { return 4 }},
	}
	if got := e.Predict(nil); got != 3 {
		t.Fatalf("mean = %v", got)
	}
	if got := (MeanEvaluator{}).Predict(nil); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}
