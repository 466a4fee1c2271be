package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/par"
	"repro/internal/tuner"
)

// Arm is one experimental arm of a study: a display name and the tuner it
// runs. Tuners only read their own fields when they open a session, so one
// value serves every cell of its arm, concurrently.
type Arm struct {
	Name  string
	Tuner tuner.Tuner
}

// Grid is a paired study: every arm tunes every task once per trial, and
// all arms of a trial tune with that trial's one seed (common random
// numbers). Seeded noise is a function of (run seed, config), so two arms
// that measure the same configuration in the same trial see the same draw
// and their difference is the arms' difference, not the noise's.
//
// The cells run concurrently over one shared measurement memo and are
// folded in fixed (arm, task, trial) order, so a result never depends on
// Parallel.
type Grid struct {
	// Label prefixes progress lines ("fig4", "ablation ...").
	Label string
	Arms  []Arm
	Tasks []*tuner.Task
	// Seeds holds each trial's run seed; len(Seeds) is the trial count.
	Seeds []int64
	// Options is every cell's tuning shape; its Seed is replaced by the
	// cell's trial seed.
	Options tuner.Options
	// Backend is the device every cell measures on (nil: the GTX 1080 Ti
	// simulator). Tuning measures only through the pure MeasureSeeded, so
	// one backend serves the whole grid.
	Backend backend.Backend
	// Parallel caps how many cells run at once (<=0: GOMAXPROCS).
	Parallel int
	// Progress, when non-nil, receives one line per finished cell and a
	// closing cache line. Calls are serialized.
	Progress func(string)
}

// GridResult holds every cell's tuning result.
type GridResult struct {
	cells         []tuner.Result // index (arm*tasks+task)*trials + trial
	tasks, trials int
	Cache         backend.SharedCacheStats // the shared memo after the run
}

// Trials returns one (arm, task) pair's results in trial order.
func (r *GridResult) Trials(arm, task int) []tuner.Result {
	i := (arm*r.tasks + task) * r.trials
	return r.cells[i : i+r.trials]
}

// RunGrid tunes every cell of g (see tuneTrial for which failures abort
// it).
func RunGrid(ctx context.Context, g Grid) (*GridResult, error) {
	b := g.Backend
	if b == nil {
		b = newBackend(0)
	}
	sc := backend.NewSharedCache(0)
	mb := backend.WithShared(b, sc)
	parallel := g.Parallel
	if parallel <= 0 {
		parallel = par.Workers()
	}
	var mu sync.Mutex
	report := func(format string, args ...interface{}) {
		if g.Progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		g.Progress(fmt.Sprintf(format, args...))
	}

	res := &GridResult{tasks: len(g.Tasks), trials: len(g.Seeds)}
	n := len(g.Arms) * res.tasks * res.trials
	res.cells = make([]tuner.Result, n)
	errs := make([]error, n)
	par.ForContext(ctx, n, parallel, func(k int) {
		arm, task, trial := k/(res.tasks*res.trials), k/res.trials%res.tasks, k%res.trials
		opts := g.Options
		opts.Seed = g.Seeds[trial]
		r, err := tuneTrial(ctx, g.Arms[arm].Tuner, g.Tasks[task], mb, opts)
		if err != nil {
			errs[k] = err
			return
		}
		res.cells[k] = r
		report("%s %s %s trial %d/%d", g.Label, g.Tasks[task].Name, g.Arms[arm].Name, trial+1, res.trials)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Cache = sc.Stats()
	report("%s: shared cache %d hits, %d misses", g.Label, res.Cache.Hits, res.Cache.Misses)
	return res, nil
}

// grid configures a study's paired grid from the Config: the given arms
// over tasks, one seed per trial, the Config's budget shape.
func (c Config) grid(label string, arms []Arm, tasks []*tuner.Task, earlyStop int) Grid {
	seeds := make([]int64, c.Trials)
	for t := range seeds {
		seeds[t] = c.trialSeed(t)
	}
	return Grid{
		Label: label, Arms: arms, Tasks: tasks, Seeds: seeds,
		Options:  tuner.Options{Budget: c.Budget, EarlyStop: earlyStop, PlanSize: c.PlanSize},
		Progress: c.Progress,
	}
}

// methodArms returns the paper's three arms in column order.
func methodArms() []Arm {
	arms := make([]Arm, len(Methods))
	for i, name := range Methods {
		arms[i] = Arm{Name: name, Tuner: NewMethodTuner(i)}
	}
	return arms
}

// MeanBestTrace averages the runs' best-so-far traces over n sampled
// configurations, each padded to n with its final value (padTrace). The
// runs are added in slice order, so the average is bit-reproducible.
func MeanBestTrace(runs []tuner.Result, n int) []float64 {
	acc := make([]float64, n)
	for _, r := range runs {
		for i, v := range padTrace(r.BestTrace(), n) {
			acc[i] += v
		}
	}
	for i := range acc {
		acc[i] /= float64(len(runs))
	}
	return acc
}

// padTrace extends a best-so-far trace to length n with its final value
// (runs can end early only when the space is exhausted).
func padTrace(trace []float64, n int) []float64 {
	out := make([]float64, n)
	last := 0.0
	for i := 0; i < n; i++ {
		if i < len(trace) {
			last = trace[i]
		}
		out[i] = last
	}
	return out
}
