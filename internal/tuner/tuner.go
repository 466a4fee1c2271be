// Package tuner implements the node-wise optimization loop of the general
// deployment framework: a context-aware measurement session with budget
// accounting, early stopping and cooperative cancellation, plus the search
// strategies compared in the paper — random/grid/GA baselines, the AutoTVM
// model-based tuner (XGBoost cost model + simulated annealing + transfer
// learning), the BTED variant that swaps AutoTVM's random initialization
// for batch transductive experimental design, and the full BTED+BAO
// advanced active-learning framework.
//
// Every tuner runs through one lifecycle: Tuner.Open returns a *Session
// (fresh, or restored from a SessionState snapshot) whose Step advances one
// planned batch, and Tune is Open followed by Drive. A session observes ctx
// at batch-fold boundaries (between planned batches and between the serial
// record steps inside a fold), so a cancelled or deadline-expired run
// returns the samples gathered so far together with an error wrapping
// ctx.Err() — and those samples are a bit-identical prefix of the
// uncancelled run's samples for any Options.Workers value.
package tuner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/transfer"
)

// ErrNoValidConfig reports a run that completed its search without a single
// valid measurement: the space was exhausted or every deployment failed.
// The Result returned alongside still carries all (invalid) samples.
var ErrNoValidConfig = errors.New("tuner: no valid configuration found")

// Task is one node-wise tuning problem: a workload plus its configuration
// space. Count carries how many fused kernels of the parent model share the
// task (used by end-to-end latency accounting).
type Task struct {
	Name     string
	Workload tensor.Workload
	Space    *space.Space
	Count    int
}

// NewTask builds a task and its template space from a workload.
func NewTask(name string, w tensor.Workload) (*Task, error) {
	sp, err := space.ForWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("tuner: task %s: %w", name, err)
	}
	return &Task{Name: name, Workload: w, Space: sp, Count: 1}, nil
}

// FromGraphTask converts an extracted graph task.
func FromGraphTask(gt graph.Task) (*Task, error) {
	t, err := NewTask(gt.Name, gt.Workload)
	if err != nil {
		return nil, err
	}
	t.Count = gt.Count
	return t, nil
}

// Observer receives every measurement as it happens (step is 1-based).
type Observer func(step int, s active.Sample)

// Options controls a tuning run. Zero values select the paper's settings.
type Options struct {
	// Budget is the maximum number of measurements (paper Fig. 4: 1024).
	Budget int
	// EarlyStop ends the run after this many measurements without
	// improvement (paper: 400). Negative disables early stopping.
	EarlyStop int
	// PlanSize is the batch size of model-based tuners and the
	// initialization set size (paper: 64).
	PlanSize int
	// Seed drives all randomness of the run.
	Seed int64
	// Observer, when set, is called after every measurement.
	Observer Observer
	// Transfer, when set, warm-starts cost models from other tasks'
	// histories and receives this run's samples afterwards.
	Transfer *transfer.History
	// Resume carries previously measured samples of this task (e.g. loaded
	// from a record log): they are never re-measured and do not consume
	// budget, but model-based tuners train on them from the first round.
	Resume []active.Sample
	// Workers sizes the measurement worker pool used for planned batches
	// (default GOMAXPROCS). Result.Samples are bit-identical for every
	// Workers value under the same Seed.
	Workers int
	// Phases, when set, accumulates per-phase wall-clock time
	// (init-set planning, surrogate training, candidate selection,
	// measurement) across the run. Pure observability: it never feeds back
	// into tuning decisions, so the sample stream is unchanged.
	Phases *PhaseTimes
}

// Normalized returns the options with zero values replaced by the paper's
// defaults — the same normalization every tuner applies when it opens a
// session. The graph scheduler uses it to see the effective Budget and
// PlanSize a session will run with.
func (o Options) Normalized() Options { return o.normalized() }

func (o Options) normalized() Options {
	if o.Budget <= 0 {
		o.Budget = 1024
	}
	if o.EarlyStop == 0 {
		o.EarlyStop = 400
	}
	if o.PlanSize <= 0 {
		o.PlanSize = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result summarizes a tuning run.
type Result struct {
	TunerName    string
	TaskName     string
	Samples      []active.Sample // in measurement order
	Best         active.Sample
	Found        bool // false when every measurement was invalid
	Measurements int
}

// BestTrace returns the best-so-far GFLOPS series (Fig. 4 ordinate).
func (r Result) BestTrace() []float64 { return active.BestTrace(r.Samples) }

// Tuner is a node-wise search strategy. Open prepares a session for the
// task without measuring anything: planning work (initialization-set
// construction, model training) happens lazily inside Step so a scheduler
// can fan it out. With st == nil the session starts fresh; otherwise it is
// rebuilt from a snapshot taken at a Step boundary (Session.Snapshot), and
// stepping it continues the original run bit-identically. The caller
// supplies the same task, backend and options — including Resume samples
// and the Transfer handle — in both cases: the snapshot carries only the
// run's own state, and a mismatched tuner, task, seed or schema version
// fails with an error. The backend must be seeded (Backend.Seeded).
type Tuner interface {
	Name() string
	Open(task *Task, b backend.Backend, opts Options, st *SessionState) (*Session, error)
}

// session tracks budget, early stopping, cancellation and the visited set
// for one run. The context is never stored: it is threaded through every
// method that may observe cancellation (enforced repo-wide by the ctxarg
// analyzer), and the first observation latches into err so the run's
// cancellation point is decided exactly once.
//
// All randomness of the run flows through src, a counted serializable
// source seeded from Options.Seed (its Rand() view is bit-identical to the
// rand.New(rand.NewSource(opts.Seed)) each tuner used to build): holding
// the source instead of a bare *rand.Rand is what makes sessions
// snapshottable, and the rngfield analyzer keeps it that way.
type session struct {
	task    *Task
	b       backend.Backend
	opts    Options
	src     *rng.Source
	prior   []active.Sample // resumed samples: training data, not budget
	samples []active.Sample
	visited map[uint64]bool
	bestG   float64
	since   int  // measurements since last improvement
	done    bool // early stopping tripped
	err     error
}

func newSession(task *Task, b backend.Backend, opts Options) *session {
	s := &session{task: task, b: b, opts: opts, src: rng.New(opts.Seed), visited: make(map[uint64]bool, opts.Budget)}
	for _, p := range opts.Resume {
		s.visited[p.Config.Flat()] = true
		s.prior = append(s.prior, p)
		if p.Valid && p.GFLOPS > s.bestG {
			s.bestG = p.GFLOPS
		}
	}
	return s
}

// knowledge returns resumed plus freshly measured samples, the training
// view of model-based tuners. The returned slice is a fresh copy: callers
// may sort it without disturbing the measurement-ordered session record.
func (s *session) knowledge() []active.Sample {
	out := make([]active.Sample, 0, len(s.prior)+len(s.samples))
	out = append(out, s.prior...)
	out = append(out, s.samples...)
	return out
}

// cancelled latches ctx's state into the session: the first call that
// observes a done ctx records its error, and every later call reports true
// without consulting ctx again.
func (s *session) cancelled(ctx context.Context) bool {
	if s.err != nil {
		return true
	}
	if err := ctx.Err(); err != nil {
		s.err = err
		return true
	}
	return false
}

// exhausted reports whether the run must stop: cancellation, early
// stopping, or a spent budget.
func (s *session) exhausted(ctx context.Context) bool {
	return s.cancelled(ctx) || s.done || len(s.samples) >= s.opts.Budget
}

// measureRaw deploys one configuration without touching session state,
// with noise derived from (run seed, config) so the result is independent
// of call order. It is the only method of the session safe to call from
// pool goroutines.
func (s *session) measureRaw(c space.Config) hwsim.Measurement {
	return s.b.MeasureSeeded(s.task.Workload, c, hwsim.NoiseSeed(s.opts.Seed, c.Flat()))
}

// record appends one finished measurement and updates the stopping state.
// Calls after early stopping are dropped, so a batch that trips the
// threshold mid-fold never records its tail.
func (s *session) record(c space.Config, mr hwsim.Measurement) {
	if s.done {
		return
	}
	sample := active.Sample{Config: c, GFLOPS: mr.GFLOPS, Valid: mr.Valid}
	s.samples = append(s.samples, sample)
	if s.opts.Observer != nil {
		s.opts.Observer(len(s.samples), sample)
	}
	if mr.Valid && mr.GFLOPS > s.bestG {
		s.bestG = mr.GFLOPS
		s.since = 0
	} else {
		s.since++
	}
	if s.opts.EarlyStop > 0 && s.since >= s.opts.EarlyStop {
		s.done = true
	}
}

// measure deploys one configuration, records it, and updates the stopping
// state. Already-visited configs are skipped silently (no budget cost).
func (s *session) measure(ctx context.Context, c space.Config) {
	if s.exhausted(ctx) {
		return
	}
	f := c.Flat()
	if s.visited[f] {
		return
	}
	s.visited[f] = true
	defer s.opts.Phases.track(PhaseMeasurement)()
	s.record(c, s.measureRaw(c))
}

// measureBatch deploys a planned batch concurrently and folds the results
// back in submission order: samples, observer callbacks and early-stopping
// decisions are exactly those of a serial sweep over the same plan, for any
// Workers value. The plan is deduplicated against the visited set (and
// within itself) and capped at the remaining budget before any measurement
// is issued, mirroring how a measurement farm deploys a planned AutoTVM
// batch.
//
// Cancellation points sit only at batch-fold boundaries: the pool stops
// dispatching once ctx is done (completed calls still fold), and the serial
// fold re-checks ctx before every record, so the recorded samples are
// always a prefix of the plan — hence of the uncancelled run.
func (s *session) measureBatch(ctx context.Context, batch []space.Config) {
	if s.exhausted(ctx) || len(batch) == 0 {
		return
	}
	plan := make([]space.Config, 0, len(batch))
	for _, c := range batch {
		if len(s.samples)+len(plan) >= s.opts.Budget {
			break
		}
		f := c.Flat()
		if s.visited[f] {
			continue
		}
		s.visited[f] = true
		plan = append(plan, c)
	}
	if len(plan) == 0 {
		return
	}
	defer s.opts.Phases.track(PhaseMeasurement)()
	// Every dispatched config is measured to completion — matching what a
	// farm already has in flight when early stopping or cancellation trips —
	// and the fold below discards anything past the stopping point.
	results := make([]hwsim.Measurement, len(plan))
	k := par.ForContext(ctx, len(plan), s.opts.Workers, func(i int) {
		results[i] = s.measureRaw(plan[i])
	})
	for i := 0; i < k; i++ {
		if s.done || s.cancelled(ctx) {
			return
		}
		s.record(plan[i], results[i])
	}
}

// result finalizes the run summary and feeds the transfer history. The
// best configuration is taken over resumed and fresh samples together (a
// resumed run deploys the best it knows), while Samples/Measurements count
// only this run's work. A cancelled run keeps its partial samples and
// returns an error wrapping the latched ctx.Err(); a completed run with no
// valid measurement anywhere returns ErrNoValidConfig.
func (s *session) result(tunerName string) (Result, error) {
	best, found := active.Best(s.knowledge())
	if s.opts.Transfer != nil && len(s.samples) > 0 {
		s.opts.Transfer.Add(s.task.Name, s.task.Workload.Op, s.samples)
	}
	res := Result{
		TunerName:    tunerName,
		TaskName:     s.task.Name,
		Samples:      s.samples,
		Best:         best,
		Found:        found,
		Measurements: len(s.samples),
	}
	if s.err != nil {
		return res, fmt.Errorf("tuner: %s on task %s stopped after %d measurements: %w",
			tunerName, s.task.Name, len(s.samples), s.err)
	}
	if !found {
		return res, fmt.Errorf("%w (tuner %s, task %s, %d measurements)",
			ErrNoValidConfig, tunerName, s.task.Name, len(s.samples))
	}
	return res, nil
}

// randomUnvisited returns a configuration not yet measured and not in
// planned (the current batch under construction; nil is fine). Uniform
// draws are tried first — overwhelmingly likely to succeed while the space
// is mostly unexplored — with the attempt cap scaled down for small spaces
// where a full scan is cheaper than draw collisions. If every draw
// collides, a golden-step permutation scan from a random start finds a
// remaining configuration systematically, so a false return means the
// space is genuinely exhausted (up to the scan cap, which only an
// astronomically unlikely draw sequence on a >2^20-point space can reach).
func (s *session) randomUnvisited(rng *rand.Rand, planned map[uint64]bool) (space.Config, bool) {
	size := s.task.Space.Size()
	draws := 512
	if size < 128 {
		draws = 4 * int(size)
	}
	for i := 0; i < draws; i++ {
		c := s.task.Space.Random(rng)
		f := c.Flat()
		if !s.visited[f] && !planned[f] {
			return c, true
		}
	}
	const maxScan = uint64(1) << 20
	scan := size
	if scan > maxScan {
		scan = maxScan
	}
	start := rng.Uint64() % size
	step := goldenStep(size)
	for i := uint64(0); i < scan; i++ {
		f := (start + i*step) % size
		if !s.visited[f] && !planned[f] {
			return s.task.Space.FromFlat(f), true
		}
	}
	return space.Config{}, false
}

// randomBatch plans up to n distinct unvisited configurations. The draw is
// serial on the caller's RNG, so the plan — and therefore the whole run —
// does not depend on how many workers later measure it.
func (s *session) randomBatch(rng *rand.Rand, n int) []space.Config {
	out := make([]space.Config, 0, n)
	planned := make(map[uint64]bool, n)
	for len(out) < n {
		c, ok := s.randomUnvisited(rng, planned)
		if !ok {
			break
		}
		planned[c.Flat()] = true
		out = append(out, c)
	}
	return out
}
