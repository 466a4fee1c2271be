package active

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

// Sample is one measured configuration: the (x, y) pair of the paper's
// already-sampled sets X and Y. Invalid deployments carry GFLOPS 0.
type Sample struct {
	Config space.Config
	GFLOPS float64
	Valid  bool
}

// MeasureFunc deploys a configuration on (simulated) hardware and returns
// its achieved GFLOPS; valid is false when the deployment failed.
type MeasureFunc func(space.Config) (gflops float64, valid bool)

// BootstrapSelect implements Bootstrap-guided sampling (Algorithm 3):
// Gamma evaluation functions are trained on bootstrap resamples of the
// observations, and the candidate maximizing their summed prediction is
// returned (as an index into cands). It returns an error when no evaluation
// function can be trained. Training and candidate scoring run on a worker
// pool sized by par.Workers(); see BootstrapSelectParallel for the
// determinism argument.
func BootstrapSelect(tr EvalTrainer, samples []Sample, cands []space.Config, gamma int, rng *rand.Rand) (int, error) {
	return BootstrapSelectParallel(tr, samples, cands, gamma, par.Workers(), rng)
}

// BootstrapSelectParallel is BootstrapSelect with an explicit worker count.
// The result is bit-identical for every workers value: each resample's
// indices and training seed are drawn from rng up front in the exact order
// the serial loop used (so the caller's RNG stream is preserved), training
// and per-candidate scoring write only index-addressed slots, and the
// argmax scans the pre-drawn tie-breaking permutation serially. The trainer
// must tolerate concurrent Train calls (all in-repo trainers are pure
// functions of their arguments).
func BootstrapSelectParallel(tr EvalTrainer, samples []Sample, cands []space.Config, gamma, workers int, rng *rand.Rand) (int, error) {
	if len(cands) == 0 {
		return -1, fmt.Errorf("active: BootstrapSelect needs candidates")
	}
	if len(samples) == 0 {
		return -1, fmt.Errorf("active: BootstrapSelect needs observations")
	}
	if gamma <= 0 {
		gamma = 1
	}

	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	yMax := 0.0
	for i, s := range samples {
		X[i] = s.Config.Features()
		y[i] = s.GFLOPS
		if s.GFLOPS > yMax {
			yMax = s.GFLOPS
		}
	}
	if yMax > 0 {
		for i := range y {
			y[i] /= yMax // scale-free targets keep tree gains well-conditioned
		}
	}

	// Pre-draw every resample's indices and training seed serially, in the
	// order the serial implementation consumed them.
	resampleIdx := make([][]int, gamma)
	seeds := make([]int64, gamma)
	for g := 0; g < gamma; g++ {
		resampleIdx[g] = stats.ResampleIndices(len(samples), rng)
		seeds[g] = rng.Int63()
	}
	perm := rng.Perm(len(cands))

	evals := make([]Evaluator, gamma)
	errs := make([]error, gamma)
	par.For(gamma, workers, func(g int) {
		idx := resampleIdx[g]
		Xg := make([][]float64, len(idx))
		yg := make([]float64, len(idx))
		for i, j := range idx {
			Xg[i] = X[j]
			yg[i] = y[j]
		}
		evals[g], errs[g] = tr.Train(Xg, yg, seeds[g])
	})
	for g, err := range errs {
		if err != nil {
			return -1, fmt.Errorf("active: training evaluation function %d: %w", g, err)
		}
	}

	// Score all candidates on the pool (index-addressed writes), then take
	// the argmax serially. Tree-based evaluators predict leaf-constant
	// values, so exact score ties among candidates are common; scanning in
	// a random order breaks ties uniformly instead of systematically
	// sweeping one corner of the searching space.
	scores := make([]float64, len(cands))
	par.For(len(cands), workers, func(i int) {
		feat := cands[i].Features()
		score := 0.0
		for _, ev := range evals {
			score += ev.Predict(feat)
		}
		scores[i] = score
	})
	best := -1
	bestScore := math.Inf(-1)
	for _, i := range perm {
		if scores[i] > bestScore {
			best = i
			bestScore = scores[i]
		}
	}
	return best, nil
}

// BAO's fixed settings.
const (
	// baoEta is the paper's relative-improvement threshold: a step whose
	// r_t (Eq. 1) falls below it searches the enlarged tau*R ball.
	baoEta = 0.05
	// baoMaxCandidates caps each step's search scope. A step trains Gamma
	// models and scores every candidate Gamma times; 2048 candidates still
	// cover the radius-3 ball densely while keeping a step in the
	// milliseconds.
	baoMaxCandidates = 2048
)

// BAOParams configures Bootstrap-guided adaptive optimization
// (Algorithm 4). The paper's experimental settings are eta=0.05 (fixed,
// baoEta), Gamma=2, tau=1.5, R=3. How long a run lasts is the driver's
// decision: a BAORun takes one step per call and never stops on its own
// while unmeasured configurations remain.
type BAOParams struct {
	Gamma int     // number of bootstrap resamples
	Tau   float64 // radius growth factor (>1)
	R     float64 // neighborhood radius in knob-index space
	// GlobalFallbackAfter switches the searching scope C_t from the
	// incumbent's neighborhood to a bootstrap-scored uniform global sample
	// after this many consecutive non-improving steps, returning to the
	// local scope as soon as the incumbent improves (default 12; negative
	// disables the fallback, giving the strictly-local reading of
	// Algorithm 4). The paper states C is "preferred" to be the incumbent
	// neighborhood, leaving the stalled case open; without an escape the
	// walk provably pins to the first index-space local maximum whose
	// radius-tau*R ball contains no better point.
	GlobalFallbackAfter int
	// LiteralCeil applies the ceiling of the paper's Eq. (1) verbatim
	// instead of the plain relative improvement (ablation; see DESIGN.md).
	LiteralCeil bool
}

// DefaultBAOParams returns the paper's experimental settings.
func DefaultBAOParams() BAOParams {
	return BAOParams{Gamma: 2, Tau: 1.5, R: 3}
}

func (p BAOParams) normalized() BAOParams {
	if p.Gamma <= 0 {
		p.Gamma = 2
	}
	if p.Tau <= 1 {
		p.Tau = 1.5
	}
	if p.R <= 0 {
		p.R = 3
	}
	if p.GlobalFallbackAfter == 0 {
		p.GlobalFallbackAfter = 12
	}
	return p
}

// BAORun is Bootstrap-guided adaptive optimization (Algorithm 4) cut at
// measurement boundaries. It holds only the algorithm's own iteration
// state — the iteration number, the stall counter that triggers the global
// fallback, and the last two best-so-far values Eq. (1) reads. The
// observations themselves stay with the driver, which passes them to
// every Step and records each deployment through its measure callback
// (the tuner session layer owns the one ledger of a run).
//
// Each Step builds the search scope C_t as the lattice neighborhood of the
// incumbent (radius R, enlarged to tau*R when the relative improvement r_t
// of Eq. (1) falls below eta), selects the next configuration with
// BootstrapSelect, and deploys it via measure.
//
// Interpretation notes (documented in DESIGN.md): y*_t is read as the best
// performance known at step t, and the neighborhood centers on the config
// achieving it; Eq. (1)'s ceiling is a typo reproduced only under
// LiteralCeil. When the neighborhood is empty or the bootstrap selection
// fails (e.g. all observations invalid), the step falls back to a uniform
// random unmeasured configuration, mirroring AutoTVM's epsilon-greedy
// fallback.
//
// The run holds no RNG of its own: the driver passes one to every Step, so
// the whole iteration state is plain serializable data (State/
// RestoreBAORun) and the RNG's continuity is the driver's concern — the
// tuner layer threads a counted rng.Source through, snapshotted alongside.
// A BAORun is single-goroutine.
type BAORun struct {
	sp           *space.Space
	tr           EvalTrainer
	p            BAOParams
	t            int       // next iteration number, 1-based
	sinceImprove int       // steps since the incumbent last improved
	bestTrace    []float64 // y*_{t-2}, y*_{t-1}: at most the last two best-so-far values
}

// NewBAORun prepares a run over the measured initialization set. Iteration
// only happens in Step; construction consumes no randomness.
func NewBAORun(sp *space.Space, tr EvalTrainer, init []Sample, p BAOParams) *BAORun {
	// bestTrace[0] is y*_0, the best value of the initialization (0 while
	// nothing is valid).
	y0, _ := Best(init)
	return &BAORun{sp: sp, tr: tr, p: p.normalized(), t: 1, bestTrace: []float64{y0.GFLOPS}}
}

// incumbent returns the index of the first best valid sample, or -1 when
// none is valid.
func incumbent(samples []Sample) int {
	best := -1
	for i, s := range samples {
		if s.Valid && (best < 0 || s.GFLOPS > samples[best].GFLOPS) {
			best = i
		}
	}
	return best
}

// Step performs one iteration of Algorithm 4 over the driver's ledger:
// samples are every observation so far in measurement order, measured holds
// the flat codes of every configuration already deployed, and measure
// deploys the selected configuration and records it in that ledger, so
// the next Step sees it. Step reports false, deploying nothing, when the
// space is exhausted. All randomness of the iteration is drawn from src,
// in a fixed order: the neighborhood draws from the counted source itself,
// everything else through src.Rand().
func (r *BAORun) Step(src *rng.Source, samples []Sample, measured map[uint64]bool, measure MeasureFunc) bool {
	radius := r.p.R
	if r.t >= 2 {
		rt := relativeImprovement(r.bestTrace, r.p.LiteralCeil)
		if rt < baoEta {
			radius = r.p.Tau * r.p.R
		}
	}

	rnd := src.Rand()
	best := incumbent(samples)
	var cands []space.Config
	useGlobal := r.p.GlobalFallbackAfter > 0 && r.sinceImprove >= r.p.GlobalFallbackAfter
	if best >= 0 && !useGlobal {
		cands = r.sp.Neighborhood(samples[best].Config, radius,
			space.NeighborhoodOpts{MaxCandidates: baoMaxCandidates, Exclude: measured}, src)
	} else if useGlobal {
		cands = globalPool(r.sp, baoMaxCandidates, measured, rnd)
	}
	var next space.Config
	picked := false
	if len(cands) > 0 {
		if i, err := BootstrapSelect(r.tr, samples, cands, r.p.Gamma, rnd); err == nil {
			next = cands[i]
			picked = true
		}
	}
	if !picked {
		c, ok := randomUnmeasured(r.sp, measured, rnd)
		if !ok {
			// The space is effectively exhausted: a re-measurement would
			// only duplicate a known sample and burn a budget step.
			return false
		}
		next = c
	}

	g, valid := measure(next)
	cur := 0.0
	if best >= 0 {
		cur = samples[best].GFLOPS
	}
	if valid && (best < 0 || g > cur) {
		cur = g
		r.sinceImprove = 0
	} else {
		r.sinceImprove++
	}
	r.bestTrace = []float64{r.bestTrace[len(r.bestTrace)-1], cur}
	r.t++
	return true
}

// relativeImprovement computes Eq. (1) over the best-so-far trajectory:
// r_t = (y*_{t-1} - y*_{t-2}) / y*_{t-1}, optionally with the paper's
// literal ceiling.
func relativeImprovement(bestTrace []float64, literalCeil bool) float64 {
	n := len(bestTrace)
	y1 := bestTrace[n-1] // y*_{t-1}
	y2 := bestTrace[n-2] // y*_{t-2}
	if y1 <= 0 {
		return 0
	}
	r := (y1 - y2) / y1
	if literalCeil {
		return math.Ceil(r)
	}
	return r
}

// globalPool draws up to n distinct unmeasured configurations uniformly
// from the whole space: the searching scope of a stalled BAO step.
func globalPool(sp *space.Space, n int, measured map[uint64]bool, rng *rand.Rand) []space.Config {
	seen := make(map[uint64]bool, n)
	out := make([]space.Config, 0, n)
	for trials := 0; trials < n*8 && len(out) < n; trials++ {
		c := sp.Random(rng)
		f := c.Flat()
		if seen[f] || measured[f] {
			continue
		}
		seen[f] = true
		out = append(out, c)
	}
	return out
}

// randomUnmeasured draws a uniform configuration not yet measured. Like
// session.randomUnvisited it reports ok=false after a bounded number of
// rejections instead of handing back an already-measured point: the space
// is then effectively exhausted and the caller must stop rather than append
// a duplicate sample.
func randomUnmeasured(sp *space.Space, measured map[uint64]bool, rng *rand.Rand) (space.Config, bool) {
	for i := 0; i < 256; i++ {
		c := sp.Random(rng)
		if !measured[c.Flat()] {
			return c, true
		}
	}
	return space.Config{}, false
}

// Best returns the best valid sample of a run, and ok=false when every
// sample was invalid.
func Best(samples []Sample) (Sample, bool) {
	if i := incumbent(samples); i >= 0 {
		return samples[i], true
	}
	return Sample{}, false
}

// BestTrace returns the best-so-far GFLOPS after each measurement, the
// series plotted in the paper's Fig. 4.
func BestTrace(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	best := 0.0
	for i, s := range samples {
		if s.Valid && s.GFLOPS > best {
			best = s.GFLOPS
		}
		out[i] = best
	}
	return out
}
