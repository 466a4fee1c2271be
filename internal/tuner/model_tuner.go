package tuner

import (
	"context"
	"math/rand"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/sa"
	"repro/internal/space"
	"repro/internal/xgb"
)

// InitStrategy produces the initialization set of a model-based tuner.
type InitStrategy int

// Initialization strategies.
const (
	// InitRandom draws PlanSize uniform configurations (AutoTVM default).
	InitRandom InitStrategy = iota
	// InitBTED runs batch transductive experimental design (Algorithm 2).
	InitBTED
)

// The model-based tuners' fixed settings.
const (
	// modelEpsilon is the random-exploration fraction per batch.
	modelEpsilon = 0.05
	// transferRowsPerPlan caps the warm-start rows mixed into the first
	// model trainings, in multiples of PlanSize.
	transferRowsPerPlan = 2
)

// ModelTuner is the AutoTVM-style model-based tuner: an XGBoost cost model
// trained on all observations ranks candidates, simulated annealing
// maximizes the model over the space, and a new batch of PlanSize
// candidates is measured each round, with epsilon-greedy random exploration
// and optional transfer-learning warm starts.
//
// With Init == InitBTED it becomes the paper's "BTED" arm: identical
// iterative machinery, diversity-optimized initialization.
type ModelTuner struct {
	// Init selects the initialization strategy.
	Init InitStrategy
	// BTED configures the BTED initialization (zero value = paper
	// defaults); ignored under InitRandom.
	BTED active.BTEDParams
	// RankObjective trains the cost model with the pairwise rank loss
	// instead of squared error (AutoTVM's actual objective; only relative
	// order matters to the SA argmax).
	RankObjective bool
}

// NewAutoTVM returns the baseline configuration of the paper's
// experiments: XGBoost + SA + transfer learning with random init.
func NewAutoTVM() *ModelTuner { return &ModelTuner{Init: InitRandom} }

// NewBTED returns AutoTVM with the BTED initialization (the paper's second
// experimental arm).
func NewBTED() *ModelTuner { return &ModelTuner{Init: InitBTED, BTED: active.DefaultBTEDParams()} }

// Name implements Tuner.
func (t *ModelTuner) Name() string {
	if t.Init == InitBTED {
		return "bted"
	}
	return "autotvm"
}

// xgbParams returns the cost model's training parameters, seed aside.
func (t *ModelTuner) xgbParams() xgb.Params {
	p := xgb.Params{NumRounds: 24, MaxDepth: 5, MaxBins: 24}
	if t.RankObjective {
		p.Objective = xgb.ObjPairwiseRank
	}
	return p
}

// Open implements Tuner: the first step measures the initialization set
// (random or BTED), each later step trains the cost model, runs the SA
// argmax, and measures one planned batch. The pooled SA objective and the
// cost model are not part of a snapshot: the model is retrained from the
// samples every round, and resetSAObjective rebuilds every model-derived
// field of a fresh objective exactly as it does a pooled one.
func (t *ModelTuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	s, err := openSession(t.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	rng := s.src.Rand()
	ex := &initedState{}
	if err := unmarshalExtra(st, ex); err != nil {
		return nil, err
	}
	// The SA objective is pooled across rounds: the space never changes
	// within a session, so each round's retrained surrogate is indexed into
	// the previous round's buffers (resetSAObjective rebuilds every
	// model-derived field, keeping rounds independent bit-for-bit).
	var saObj *saObjective
	step := func(ctx context.Context) bool {
		if s.exhausted(ctx) {
			return true
		}
		if !ex.Inited {
			// ---- Initialization stage ---------------------------------
			ex.Inited = true
			initDone := opts.Phases.track(PhaseInitSet)
			var init []space.Config
			if t.Init == InitBTED {
				p := t.BTED
				p.M0 = opts.PlanSize
				init = active.BTED(task.Space, p, rng)
			} else {
				init = active.RandomInit(task.Space, opts.PlanSize, rng)
			}
			initDone()
			s.measureBatch(ctx, init)
			return s.exhausted(ctx)
		}
		// ---- Iterative optimization stage -----------------------------
		trainDone := opts.Phases.track(PhaseSurrogateTrain)
		model := t.trainModel(task, s, rng)
		trainDone()
		selectDone := opts.Phases.track(PhaseCandidateSelection)
		var cands []space.Config
		if model != nil {
			// Delta-encoded feature rows over the flat surrogate: scores
			// are bit-identical to model.Predict(c.Features()) per
			// candidate, so the sample stream matches the naive objective.
			saObj = resetSAObjective(saObj, model, task.Space)
			cands = sa.FindMaxima(task.Space, saObj, opts.PlanSize, s.visited, rng)
		}
		// Epsilon-greedy exploration plus padding when SA under-delivers.
		// The batch is planned serially (all RNG draws happen here), then
		// measured as one deterministic parallel batch.
		batch := make([]space.Config, 0, opts.PlanSize)
		planned := make(map[uint64]bool, opts.PlanSize)
		add := func(c space.Config) {
			f := c.Flat()
			if s.visited[f] || planned[f] {
				return
			}
			planned[f] = true
			batch = append(batch, c)
		}
		for _, c := range cands {
			if len(batch) >= opts.PlanSize {
				break
			}
			if rng.Float64() < modelEpsilon {
				if rc, ok := s.randomUnvisited(rng, planned); ok {
					add(rc)
					continue
				}
			}
			add(c)
		}
		for len(batch) < opts.PlanSize {
			rc, ok := s.randomUnvisited(rng, planned)
			if !ok {
				break
			}
			add(rc)
		}
		if len(batch) == 0 {
			selectDone()
			return true
		}
		selectDone()
		s.measureBatch(ctx, batch)
		return s.exhausted(ctx)
	}
	return newStepSession(t.Name(), s, st, step, func() any { return *ex }), nil
}

// trainModel fits the cost model on all observations (normalized to the
// best seen), mixing transfer-learning warm-start rows while the task's own
// data is scarce. Returns nil when training is impossible.
func (t *ModelTuner) trainModel(task *Task, s *session, rng *rand.Rand) *xgb.Model {
	data := s.knowledge()
	if len(data) == 0 {
		return nil
	}
	X := make([][]float64, 0, len(data))
	y := make([]float64, 0, len(data))
	yMax := 0.0
	for _, smp := range data {
		if smp.Valid && smp.GFLOPS > yMax {
			yMax = smp.GFLOPS
		}
	}
	for _, smp := range data {
		X = append(X, smp.Config.Features())
		if smp.Valid && yMax > 0 {
			y = append(y, smp.GFLOPS/yMax)
		} else {
			y = append(y, 0)
		}
	}
	if s.opts.Transfer != nil {
		// Warm starts matter most early; fade them out as own data grows.
		if len(data) < 4*s.opts.PlanSize {
			tx, ty := s.opts.Transfer.WarmStart(task.Workload.Op, task.Name, transferRowsPerPlan*s.opts.PlanSize)
			X = append(X, tx...)
			y = append(y, ty...)
		}
	}
	p := t.xgbParams()
	p.Seed = rng.Int63()
	model, err := xgb.Train(X, y, p)
	if err != nil {
		return nil
	}
	return model
}
