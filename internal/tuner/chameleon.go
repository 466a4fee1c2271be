package tuner

import (
	"context"
	"math/rand"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/sa"
	"repro/internal/space"
)

// ChameleonTuner is a simplified CHAMELEON-style baseline (Ahn et al.,
// ICLR 2020): like the AutoTVM tuner it proposes a candidate batch by
// maximizing a learned cost model, but it then *adaptively samples* the
// batch — k-means clustering over candidate features, measuring only the
// cluster representatives — so each round spends fewer on-chip
// measurements on redundant, mutually-similar candidates.
//
// The original uses reinforcement learning for the proposal step; the
// paper under reproduction explicitly declines to re-implement that ("too
// difficult to implement and train"), and its measurable delta comes from
// the adaptive sampling, which is what this baseline keeps.
type ChameleonTuner struct{}

// The baseline's fixed ratios.
const (
	// chameleonProposalFactor scales how many candidates are proposed per
	// round relative to PlanSize before clustering shrinks them.
	chameleonProposalFactor = 4
	// chameleonMeasureFrac is the fraction of PlanSize actually measured
	// per round after clustering.
	chameleonMeasureFrac = 0.5
)

// NewChameleon returns the baseline.
func NewChameleon() *ChameleonTuner { return &ChameleonTuner{} }

// Name implements Tuner.
func (*ChameleonTuner) Name() string { return "chameleon" }

// Open implements Tuner: the first step measures the random
// initialization set, each later step proposes candidates via the cost
// model, adaptively samples them by clustering, and measures the survivors.
func (t *ChameleonTuner) Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error) {
	opts = opts.normalized()
	s, err := openSession(t.Name(), task, b, opts, st)
	if err != nil {
		return nil, err
	}
	rng := s.src.Rand()
	// The cost model autotvm trains (squared-error objective).
	var costModel ModelTuner
	measureN := int(chameleonMeasureFrac * float64(opts.PlanSize))

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
			s.measureBatch(ctx, active.RandomInit(task.Space, opts.PlanSize, rng))
			return s.exhausted(ctx)
		}
		before := len(s.samples)
		model := costModel.trainModel(task, s, rng)
		var batch []space.Config
		if model != nil {
			obj := newSAObjective(model, task.Space)
			proposals := sa.FindMaxima(task.Space, obj, chameleonProposalFactor*opts.PlanSize, s.visited, rng)
			batch = adaptiveSample(proposals, measureN, rng)
		}
		planned := make(map[uint64]bool, len(batch))
		for _, c := range batch {
			planned[c.Flat()] = true
		}
		for len(batch) < measureN {
			rc, ok := s.randomUnvisited(rng, planned)
			if !ok {
				break
			}
			planned[rc.Flat()] = true
			batch = append(batch, rc)
		}
		s.measureBatch(ctx, batch)
		if len(s.samples) == before {
			return true
		}
		return s.exhausted(ctx)
	}
	return newStepSession(t.Name(), s, st, step, func() any { return *ex }), nil
}

// adaptiveSample clusters the proposals in feature space and keeps one
// representative per cluster.
func adaptiveSample(proposals []space.Config, k int, rng *rand.Rand) []space.Config {
	if len(proposals) == 0 || k <= 0 {
		return nil
	}
	if k >= len(proposals) {
		return proposals
	}
	feats := make([][]float64, len(proposals))
	for i, c := range proposals {
		feats[i] = c.Features()
	}
	res, err := cluster.KMeans(feats, k, 30, rng)
	if err != nil {
		return proposals[:k]
	}
	reps := res.Representatives(feats)
	out := make([]space.Config, 0, len(reps))
	for _, i := range reps {
		out = append(out, proposals[i])
	}
	return out
}
