package tuner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/space"
)

// AdvancedTuner is the paper's full advanced active-learning framework
// (Fig. 3): BTED builds the diverse initialization set, then BAO performs
// bootstrap-guided adaptive optimization over incumbent neighborhoods,
// deploying one configuration per iteration.
type AdvancedTuner struct {
	// BTED configures the initialization (zero value = paper defaults).
	BTED active.BTEDParams
	// BAO configures the iterative stage (zero value = paper defaults:
	// Gamma 2, tau 1.5, R 3; eta is fixed at 0.05). The run's budget and
	// early stopping come from the Options, as for every tuner.
	BAO active.BAOParams
	// Trainer builds the bootstrap evaluation functions; nil selects the
	// XGBoost trainer.
	Trainer active.EvalTrainer
}

// NewBTEDBAO returns the paper's "BTED + BAO" arm with its experimental
// settings.
func NewBTEDBAO() *AdvancedTuner {
	return &AdvancedTuner{BTED: active.DefaultBTEDParams()}
}

// Name implements Tuner.
func (*AdvancedTuner) Name() string { return "bted+bao" }

// Open implements Tuner: the first step measures the BTED initialization
// set as one parallel batch, and each later step performs exactly one BAO
// iteration (the BAO stage is inherently sequential — each step's
// neighborhood depends on the previous measurement — so it deploys one
// configuration at a time regardless of Workers). BAO steps over the
// session's own samples and visited set, so the snapshot adds only
// Algorithm 4's counters (iteration, stall count, last two best-so-far
// values) to the session state; the bootstrap trainer is rebuilt fresh,
// trainers being pure functions of their arguments.
func (t *AdvancedTuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	s, err := openSession(t.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	rng := s.src.Rand()
	trainer := t.Trainer
	if trainer == nil {
		trainer = active.NewXGBTrainer()
	}

	ex := &advancedState{}
	if err := unmarshalExtra(st, ex); err != nil {
		return nil, err
	}
	var run *active.BAORun
	if ex.BAO != nil {
		run, err = active.RestoreBAORun(task.Space, trainer, t.BAO, *ex.BAO)
		if err != nil {
			return nil, fmt.Errorf("tuner: restore %s: %w", t.Name(), err)
		}
	}
	step := func(ctx context.Context) bool {
		// Polled before every iteration: the session's budget, early
		// stopping and ctx are the only things that end a BAO run, short of
		// an exhausted space.
		if s.exhausted(ctx) {
			return true
		}
		if !ex.Inited {
			// ---- Initialization: BTED (Algorithms 1 & 2) -----------------
			ex.Inited = true
			bp := t.BTED
			bp.M0 = opts.PlanSize
			initDone := opts.Phases.track(PhaseInitSet)
			init := active.BTED(task.Space, bp, rng)
			initDone()
			s.measureBatch(ctx, init)

			// ---- Iterative optimization: BAO (Algorithms 3 & 4) ----------
			if s.exhausted(ctx) {
				return true
			}
			run = active.NewBAORun(task.Space, trainer, s.knowledge(), t.BAO)
			return false
		}
		if run == nil {
			return true
		}
		// One BAO iteration is bootstrap training + neighborhood scoring
		// with a measurement in the middle; everything outside the measure
		// callback is candidate selection (the bootstrap-model training is
		// inseparable from it in BAO's step, so it lands in this bucket
		// rather than surrogate_train).
		stepStart := time.Now() //lint:ignore walltime PhaseTimes observability: the duration is only accumulated, never branched on
		var measured time.Duration
		measure := func(c space.Config) (float64, bool) {
			m0 := time.Now() //lint:ignore walltime PhaseTimes observability: splits measurement time out of the BAO step
			//lint:ignore walltime PhaseTimes observability: accumulate-only, no control flow reads it
			defer func() { measured += time.Since(m0) }()
			before := len(s.samples)
			s.measure(ctx, c)
			if len(s.samples) == before {
				// Budget exhausted, early stopping tripped or cancelled: the
				// exhausted check below ends the run.
				return 0, false
			}
			last := s.samples[len(s.samples)-1]
			return last.GFLOPS, last.Valid
		}
		stop := !run.Step(s.src, s.knowledge(), s.visited, measure) || s.exhausted(ctx)
		//lint:ignore walltime PhaseTimes observability: reported upward only, tuning decisions never read it
		opts.Phases.Add(PhaseCandidateSelection, time.Since(stepStart)-measured)
		return stop
	}
	return newStepSession(t.Name(), s, st, step, func() any {
		out := advancedState{Inited: ex.Inited}
		if run != nil {
			bs := run.State()
			out.BAO = &bs
		}
		return out
	}), nil
}
