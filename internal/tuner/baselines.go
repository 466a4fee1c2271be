package tuner

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/space"
)

// RandomTuner samples configurations uniformly without replacement: the
// weakest baseline and the sanity floor for every comparison.
type RandomTuner struct{}

// Name implements Tuner.
func (RandomTuner) Name() string { return "random" }

// Open implements Tuner: each step plans and measures one uniform batch.
func (t RandomTuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	s, err := openSession(t.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	rng := s.src.Rand()
	step := func(ctx context.Context) bool {
		if s.exhausted(ctx) {
			return true
		}
		n := opts.Budget - len(s.samples)
		if n > opts.PlanSize {
			n = opts.PlanSize
		}
		batch := s.randomBatch(rng, n)
		if len(batch) == 0 {
			return true
		}
		s.measureBatch(ctx, batch)
		return s.exhausted(ctx)
	}
	return newStepSession(t.Name(), s, st, step, nil), nil
}

// GridTuner sweeps flat indices deterministically with a golden-ratio
// step: the "enumerate everything" strawman scaled to a finite budget. A
// plain arithmetic stride would keep the low-order knobs nearly constant
// and can alias the whole sweep into an infeasible subspace; the
// low-discrepancy step decorrelates all knob digits while staying fully
// deterministic (no RNG).
type GridTuner struct{}

// Name implements Tuner.
func (GridTuner) Name() string { return "grid" }

// Open implements Tuner: each step measures the next PlanSize-long slice
// of the golden-ratio sweep.
func (t GridTuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	s, err := openSession(t.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	size := task.Space.Size()
	gstep := goldenStep(size)
	// The golden-ratio sweep is a permutation of the space: after Size()
	// iterations every flat index has been visited once and further
	// iterations would only revisit configs as silent no-ops, so the sweep
	// is capped at the space size, not just the budget.
	limit := uint64(opts.Budget)
	if size < limit {
		limit = size
	}
	ex := &gridState{}
	if err := unmarshalExtra(st, ex); err != nil {
		return nil, err
	}
	step := func(ctx context.Context) bool {
		if s.exhausted(ctx) {
			return true
		}
		batch := make([]space.Config, 0, opts.PlanSize)
		for ; ex.I < limit && len(batch) < opts.PlanSize; ex.I++ {
			batch = append(batch, task.Space.FromFlat((ex.I*gstep)%size))
		}
		if len(batch) == 0 {
			return true
		}
		s.measureBatch(ctx, batch)
		return ex.I >= limit || s.exhausted(ctx)
	}
	return newStepSession(t.Name(), s, st, step, func() any { return *ex }), nil
}

// goldenStep returns floor(size/phi) adjusted to be coprime with size, so
// the sweep i -> (i*step) mod size is a permutation of the space.
func goldenStep(size uint64) uint64 {
	if size <= 2 {
		return 1
	}
	step := uint64(float64(size) * 0.6180339887498949)
	if step == 0 {
		step = 1
	}
	step |= 1
	for gcd(step, size) != 1 {
		step += 2
		if step >= size {
			step = 1
			break
		}
	}
	return step
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// The genetic algorithm's fixed settings; the population size is PlanSize.
const (
	gaEliteFrac  = 0.5 // survivor fraction per generation
	gaMutateProb = 0.1 // per-knob mutation probability
)

// GATuner is a genetic-algorithm baseline in the spirit of AutoTVM's
// GATuner: tournament-free elitism with uniform knob crossover and
// per-knob mutation.
type GATuner struct{}

// Name implements Tuner.
func (GATuner) Name() string { return "ga" }

// Open implements Tuner: the first step measures the seed population, each
// later step plans and measures one generation.
func (g GATuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	pop := opts.PlanSize
	s, err := openSession(g.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	rng := s.src.Rand()
	ex := &initedState{}
	if err := unmarshalExtra(st, ex); err != nil {
		return nil, err
	}
	step := func(ctx context.Context) bool {
		if s.exhausted(ctx) {
			return true
		}
		if !ex.Inited {
			ex.Inited = true
			s.measureBatch(ctx, task.Space.RandomSample(pop, rng))
			return s.exhausted(ctx)
		}
		before := len(s.samples)
		// Rank all known samples (including resumed ones) by fitness.
		scored := s.knowledge()
		sort.SliceStable(scored, func(i, j int) bool { return fitness(scored[i]) > fitness(scored[j]) })
		eliteN := int(gaEliteFrac * float64(pop))
		if eliteN < 2 {
			eliteN = 2
		}
		if eliteN > len(scored) {
			eliteN = len(scored)
		}
		elite := scored[:eliteN]

		// Plan the whole generation serially, then measure it as one batch.
		batch := make([]space.Config, 0, pop)
		planned := make(map[uint64]bool, pop)
		for i := 0; i < pop; i++ {
			pa := elite[rng.Intn(len(elite))].Config
			pb := elite[rng.Intn(len(elite))].Config
			child := crossover(task.Space, pa, pb, rng)
			mutateKnobs(task.Space, child, rng)
			f := child.Flat()
			if s.visited[f] || planned[f] {
				c, ok := s.randomUnvisited(rng, planned)
				if !ok {
					break
				}
				child, f = c, c.Flat()
			}
			planned[f] = true
			batch = append(batch, child)
		}
		s.measureBatch(ctx, batch)
		if len(s.samples) == before {
			return true // space effectively exhausted; nothing new to measure
		}
		return s.exhausted(ctx)
	}
	return newStepSession(g.Name(), s, st, step, func() any { return *ex }), nil
}

func fitness(s active.Sample) float64 {
	if !s.Valid {
		return 0
	}
	return s.GFLOPS
}

// crossover picks each knob uniformly from either parent.
func crossover(sp *space.Space, a, b space.Config, rng *rand.Rand) space.Config {
	child := a.Clone()
	for i := range child.Index {
		if rng.Intn(2) == 1 {
			child.Index[i] = b.Index[i]
		}
	}
	_ = sp
	return child
}

// mutateKnobs reassigns each knob to a random option with probability
// gaMutateProb.
func mutateKnobs(sp *space.Space, c space.Config, rng *rand.Rand) {
	for i := range c.Index {
		if rng.Float64() < gaMutateProb {
			c.Index[i] = rng.Intn(sp.Knob(i).Len())
		}
	}
}
