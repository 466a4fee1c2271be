// Package core drives the paper's end-to-end flow (Fig. 1): a DNN model is
// lowered to a fused compute graph, node-wise tuning tasks are extracted,
// each task is optimized with a chosen search strategy, and the resulting
// per-node configurations are combined into a model deployment whose
// inference latency (mean and variance over repeated runs) is the final
// metric of Table I.
//
// The pipeline is context-aware: cancelling ctx aborts it between
// measurements with an error, a per-task deadline bounds each task's
// search, and OnRecord streams every measurement out the moment it lands,
// so a run that dies loses nothing that was already measured.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/space"
	"repro/internal/transfer"
	"repro/internal/tuner"
)

// PipelineOptions configures an end-to-end deployment optimization.
type PipelineOptions struct {
	// Tuning carries the per-task tuning options; Seed seeds task i with
	// Seed+i so runs are deterministic yet decorrelated.
	Tuning tuner.Options
	// Extract selects which operator kinds become tuning tasks
	// (graph.AllOps for Table I end-to-end runs).
	Extract graph.ExtractOpts
	// UseTransfer enables cross-task transfer learning within the model
	// (AutoTVM's default behaviour).
	UseTransfer bool
	// Resume carries records of a previous run; matching tasks start with
	// that knowledge and never re-measure logged configurations.
	Resume []record.Record
	// Runs is the number of end-to-end inference simulations used for the
	// latency statistics (paper: 600).
	Runs int
	// ReMeasureTopK / ReMeasureRepeats: before deployment, the top-K
	// distinct configurations of each task are re-measured Repeats times
	// and the best mean wins. Single noisy measurements suffer a winner's
	// curse (a mediocre high-variance config gets one lucky reading and is
	// deployed); re-measuring the short list is what AutoTVM's
	// pick-best-from-log flow does in practice. Defaults 5 and 3;
	// ReMeasureTopK < 0 disables re-measurement.
	ReMeasureTopK    int
	ReMeasureRepeats int
	// TaskDeadline bounds each task's tuning wall clock. When it expires
	// the task stops searching and deploys the best configuration found
	// within the deadline; a task that found nothing valid is an error.
	// Zero means no per-task deadline.
	TaskDeadline time.Duration
	// OnRecord, when non-nil, receives every measurement of every task as
	// a log record the moment the session records it (step-ordered within
	// each task). This is the streaming path cmd/tune uses to keep its
	// record log crash-safe instead of flattening Records() at the end.
	OnRecord func(record.Record)
	// Progress, when non-nil, is called once per task before it can start
	// tuning (in task order).
	Progress func(taskIdx, taskTotal int, name string)
	// OnTaskDone, when non-nil, receives a completion event per task:
	// outcome, wall clock spent tuning, measurement count, and the deployed
	// configuration. It fires at the scheduler round boundary that
	// finalizes the task, in task-index order within a boundary; under the
	// sequential policy (TaskConcurrency 1, uniform budget) that is right
	// after each task, before the next one opens.
	OnTaskDone func(TaskEvent)
	// TaskConcurrency is how many tasks the graph scheduler tunes
	// concurrently. With the uniform budget policy, 1 (or 0) runs the
	// scheduler's sequential policy: one task at a time in task order, the
	// classic pipeline bit-identically, including live transfer-learning
	// chaining. Values > 1 interleave tasks in deterministic rounds with
	// transfer history snapshotted at round boundaries; results are then
	// identical for every such value and every worker count. Unseeded
	// backends always execute one task at a time.
	TaskConcurrency int
	// BudgetPolicy selects the scheduler's budget policy by name: "" or
	// "uniform" gives every task its own budget (legacy behaviour);
	// "adaptive" reallocates the graph-wide budget each round toward the
	// tasks with the highest marginal GFLOPS gain.
	BudgetPolicy string
	// OnCheckpoint, when non-nil, receives the scheduler's serializable run
	// state at boundaries (see sched.Options.OnCheckpoint). Like every
	// other pipeline callback it is serialized under the callback mutex.
	OnCheckpoint func(*sched.Checkpoint)
	// CheckpointEvery rate-limits checkpoints by new measurements
	// (sched.Options.CheckpointEvery); 0 captures at every boundary.
	CheckpointEvery int
	// ResumeCheckpoint continues a previous run from a scheduler
	// checkpoint instead of starting fresh. The caller must rebuild the
	// pipeline with the same model, tuner, backend seeds, and options the
	// original run used (including Resume records, if any); restored
	// outcomes are returned without re-firing OnTaskDone, and their
	// deployment configurations are re-selected deterministically. Only
	// seeded backends continue bit-identically: an unseeded backend's
	// shared noise-stream position is not part of the checkpoint.
	ResumeCheckpoint *sched.Checkpoint
}

// TaskEvent is the per-task completion report delivered to OnTaskDone.
//
// Callback ordering guarantee: Progress, OnRecord, Tuning.Observer and
// OnTaskDone calls issued by the pipeline are serialized under one mutex —
// user callbacks never run concurrently with each other, and a task's
// records arrive in step order. Cross-task interleaving of OnRecord is
// unspecified when TaskConcurrency > 1.
type TaskEvent struct {
	// Index is the 1-based task index; Total the task count.
	Index, Total int
	Name         string
	Result       tuner.Result
	// Err is the task's tolerated error (per-task deadline expiry with a
	// deployable best); fatal errors abort OptimizeGraph instead.
	Err error
	// Elapsed is the wall clock spent tuning the task.
	Elapsed time.Duration
	// Measurements is the task's measurement count (== Result.Measurements).
	Measurements int
	// Deployed is the configuration chosen for deployment (after the
	// re-measurement short list).
	Deployed space.Config
}

// TaskOutcome records the tuning result of one task.
type TaskOutcome struct {
	Task   *tuner.Task
	Result tuner.Result
	// Deployed is the configuration actually deployed: the tuner's best
	// unless re-measurement promoted a steadier candidate.
	Deployed space.Config
}

// Deployment is the tuned end-to-end model: the combination of the best
// configuration for every node.
type Deployment struct {
	Model     string
	TunerName string
	Tasks     []TaskOutcome
	// LatencyMS and Variance are the Table I columns: mean end-to-end
	// inference latency and its variance over Runs simulated runs.
	LatencyMS float64
	Variance  float64
	// TotalMeasurements sums tuning measurements over all tasks (the
	// optimization workload of Fig. 5(a)).
	TotalMeasurements int
}

// BestGFLOPSByTask maps task name to its best achieved GFLOPS.
func (d *Deployment) BestGFLOPSByTask() map[string]float64 {
	out := make(map[string]float64, len(d.Tasks))
	for _, t := range d.Tasks {
		if t.Result.Found {
			out[t.Task.Name] = t.Result.Best.GFLOPS
		}
	}
	return out
}

// Records flattens all tuning measurements into log records.
func (d *Deployment) Records() []record.Record {
	var out []record.Record
	for _, t := range d.Tasks {
		for i, s := range t.Result.Samples {
			out = append(out, record.Record{
				Task:     t.Task.Name,
				Workload: t.Task.Workload.Key(),
				Tuner:    d.TunerName,
				Step:     i + 1,
				Config:   s.Config.Index,
				GFLOPS:   s.GFLOPS,
				Valid:    s.Valid,
			})
		}
	}
	return out
}

// OptimizeModel runs the full pipeline for one model and tuner on the
// backend. It returns an error when the model is unknown, ctx is cancelled,
// or any task finishes without a single valid configuration.
func OptimizeModel(ctx context.Context, model string, tn tuner.Tuner, b backend.Backend, opts PipelineOptions) (*Deployment, error) {
	g, err := graph.Model(model)
	if err != nil {
		return nil, err
	}
	return OptimizeGraph(ctx, g, tn, b, opts)
}

// OptimizeGraph is OptimizeModel over an already-built graph. The per-task
// tuning is delegated to the deterministic graph scheduler (internal/sched):
// TaskConcurrency 1 with the uniform policy runs its sequential policy, the
// classic sequential pipeline bit-identically; higher concurrency
// interleaves tasks in rounds without changing any task's measurements.
func OptimizeGraph(ctx context.Context, g *graph.Graph, tn tuner.Tuner, b backend.Backend, opts PipelineOptions) (*Deployment, error) {
	if opts.Runs <= 0 {
		opts.Runs = 600
	}
	gtasks := graph.ExtractTasks(g, opts.Extract)
	if len(gtasks) == 0 {
		return nil, fmt.Errorf("core: model %s has no tunable tasks", g.Name)
	}
	policy, err := sched.PolicyByName(opts.BudgetPolicy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var hist *transfer.History
	if opts.UseTransfer {
		hist = transfer.NewHistory()
	}

	// All user-supplied callbacks share one mutex: with TaskConcurrency > 1
	// observers fire from concurrent task goroutines, and the documented
	// contract (see TaskEvent) is that user callbacks never run
	// concurrently with each other.
	var cbMu sync.Mutex
	specs := make([]sched.Spec, 0, len(gtasks))
	for i, gt := range gtasks {
		task, err := tuner.FromGraphTask(gt)
		if err != nil {
			return nil, err
		}
		topts := opts.Tuning
		topts.Seed = opts.Tuning.Seed + int64(i)*1000003
		topts.Transfer = hist
		if len(opts.Resume) > 0 {
			topts.Resume = resumeSamples(opts.Resume, task)
		}
		topts.Observer = streamObserver(opts, &cbMu, topts.Observer, task, tn.Name())
		specs = append(specs, sched.Spec{Task: task, Opts: topts})
	}

	dep := &Deployment{Model: g.Name, TunerName: tn.Name()}
	taskOuts := make([]TaskOutcome, len(specs))
	hdeps := make([]hwsim.Deployment, len(specs))
	sopts := sched.Options{
		TaskConcurrency: opts.TaskConcurrency,
		Policy:          policy,
		TaskDeadline:    opts.TaskDeadline,
		OnTaskDone: func(o sched.Outcome) {
			// Runs on the scheduler's driver goroutine, in completion order:
			// under the sequential policy that is exactly the legacy sequence
			// "tune task, select deployment, tune next task", which keeps
			// unseeded backends' shared noise stream in the legacy order.
			task := specs[o.Index].Task
			deployed := selectDeployConfig(task, o.Result, b,
				specs[o.Index].Opts.Seed, opts.ReMeasureTopK, opts.ReMeasureRepeats)
			taskOuts[o.Index] = TaskOutcome{Task: task, Result: o.Result, Deployed: deployed}
			hdeps[o.Index] = hwsim.Deployment{Workload: task.Workload, Config: deployed, Count: task.Count}
			if opts.OnTaskDone != nil {
				cbMu.Lock()
				opts.OnTaskDone(TaskEvent{
					Index: o.Index + 1, Total: len(specs), Name: task.Name,
					Result: o.Result, Err: o.Err, Elapsed: o.Elapsed,
					Measurements: o.Result.Measurements, Deployed: deployed,
				})
				cbMu.Unlock()
			}
		},
	}
	if opts.Progress != nil {
		sopts.OnTaskStart = func(i, n int, name string) {
			cbMu.Lock()
			opts.Progress(i, n, name)
			cbMu.Unlock()
		}
	}
	sopts.CheckpointEvery = opts.CheckpointEvery
	sopts.Resume = opts.ResumeCheckpoint
	if opts.OnCheckpoint != nil {
		sopts.OnCheckpoint = func(cp *sched.Checkpoint) {
			cbMu.Lock()
			opts.OnCheckpoint(cp)
			cbMu.Unlock()
		}
	}

	outs, err := sched.Run(ctx, tuner.AsOpener(tn), b, specs, sopts)
	if err != nil {
		var te *sched.TaskError
		if errors.As(err, &te) {
			return nil, fmt.Errorf("core: tuning task %s: %w", te.TaskName, te.Err)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	// Outcomes restored from a resumed checkpoint never pass through
	// OnTaskDone (scheduler callbacks fire only for post-checkpoint events),
	// so their deployment selections are filled in here. selectDeployConfig
	// derives per-config measurement seeds on seeded backends, making the
	// late selection bit-identical to the original boundary-time one.
	for _, o := range outs {
		if taskOuts[o.Index].Task != nil {
			continue
		}
		task := specs[o.Index].Task
		deployed := selectDeployConfig(task, o.Result, b,
			specs[o.Index].Opts.Seed, opts.ReMeasureTopK, opts.ReMeasureRepeats)
		taskOuts[o.Index] = TaskOutcome{Task: task, Result: o.Result, Deployed: deployed}
		hdeps[o.Index] = hwsim.Deployment{Workload: task.Workload, Config: deployed, Count: task.Count}
	}
	for i := range taskOuts {
		dep.Tasks = append(dep.Tasks, taskOuts[i])
		dep.TotalMeasurements += taskOuts[i].Result.Measurements
	}

	mean, variance, err := b.NetworkLatency(hdeps, opts.Runs)
	if err != nil {
		return nil, fmt.Errorf("core: measuring end-to-end latency of %s: %w", g.Name, err)
	}
	dep.LatencyMS = mean
	dep.Variance = variance
	return dep, nil
}

// streamObserver chains the caller's observer with the OnRecord stream so
// every measurement leaves the pipeline the moment it is recorded. The
// shared mutex serializes the user callbacks across concurrently tuned
// tasks; a task's own calls stay in step order.
func streamObserver(opts PipelineOptions, mu *sync.Mutex, inner tuner.Observer, task *tuner.Task, tunerName string) tuner.Observer {
	if opts.OnRecord == nil && inner == nil {
		return nil
	}
	name, wkey := task.Name, task.Workload.Key()
	return func(step int, s active.Sample) {
		mu.Lock()
		defer mu.Unlock()
		if inner != nil {
			inner(step, s)
		}
		if opts.OnRecord != nil {
			opts.OnRecord(record.Record{
				Task:     name,
				Workload: wkey,
				Tuner:    tunerName,
				Step:     step,
				Config:   s.Config.Index,
				GFLOPS:   s.GFLOPS,
				Valid:    s.Valid,
			})
		}
	}
}

// ApplyRecords rebuilds a Deployment's latency from previously logged best
// records (e.g. loaded from disk) instead of re-tuning. Tasks without a
// matching record are an error.
func ApplyRecords(model string, recs []record.Record, b backend.Backend, extract graph.ExtractOpts, runs int) (latencyMS, variance float64, err error) {
	g, err := graph.Model(model)
	if err != nil {
		return 0, 0, err
	}
	if runs <= 0 {
		runs = 600
	}
	best := record.BestByTask(recs)
	gtasks := graph.ExtractTasks(g, extract)
	deps := make([]hwsim.Deployment, 0, len(gtasks))
	for _, gt := range gtasks {
		r, ok := best[gt.Name]
		if !ok {
			return 0, 0, fmt.Errorf("core: no record for task %s", gt.Name)
		}
		task, err := tuner.FromGraphTask(gt)
		if err != nil {
			return 0, 0, err
		}
		cfg, err := r.ToConfig(task.Space)
		if err != nil {
			return 0, 0, fmt.Errorf("core: record for %s: %w", gt.Name, err)
		}
		deps = append(deps, hwsim.Deployment{Workload: task.Workload, Config: cfg, Count: task.Count})
	}
	return b.NetworkLatency(deps, runs)
}

// selectDeployConfig re-measures the task's top-K distinct configurations
// `repeats` times each and returns the one with the best mean GFLOPS. With
// topK < 0 (or degenerate parameters) it returns the tuner's raw best.
// On a seeded backend the repeats draw deterministic per-repeat noise
// seeds, with repeat 0 reusing the tuning run's own seed for the config —
// so a memoizing cache serves it without a fresh simulator call and the
// whole re-measurement is worker- and order-independent.
func selectDeployConfig(task *tuner.Task, res tuner.Result, b backend.Backend, runSeed int64, topK, repeats int) space.Config {
	if topK < 0 {
		return res.Best.Config
	}
	if topK == 0 {
		topK = 5
	}
	if repeats <= 0 {
		repeats = 3
	}
	// Distinct valid samples, best measured first.
	ordered := append([]active.Sample(nil), res.Samples...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].GFLOPS > ordered[j].GFLOPS })
	best := res.Best.Config
	bestMean := -1.0
	taken := 0
	seen := make(map[uint64]bool, topK)
	for _, s := range ordered {
		if !s.Valid || taken >= topK {
			if taken >= topK {
				break
			}
			continue
		}
		f := s.Config.Flat()
		if seen[f] {
			continue
		}
		seen[f] = true
		taken++
		total, valid := 0.0, 0
		for r := 0; r < repeats; r++ {
			var mr hwsim.Measurement
			if b.Seeded() {
				mr = b.MeasureSeeded(task.Workload, s.Config, remeasureSeed(runSeed, f, r))
			} else {
				mr = b.Measure(task.Workload, s.Config)
			}
			if mr.Valid {
				total += mr.GFLOPS
				valid++
			}
		}
		if valid == 0 {
			continue
		}
		if mean := total / float64(valid); mean > bestMean {
			bestMean = mean
			best = s.Config
		}
	}
	return best
}

// remeasureSeed derives the noise seed of re-measurement repeat r. Repeat 0
// reuses the tuning run's seed for the configuration (a guaranteed cache
// hit on a memoizing backend); later repeats remix the run seed so each is
// an independent fresh draw.
func remeasureSeed(runSeed int64, flat uint64, repeat int) int64 {
	if repeat == 0 {
		return hwsim.NoiseSeed(runSeed, flat)
	}
	return hwsim.NoiseSeed(runSeed+int64(repeat)*0x9E3779B9, flat)
}

// resumeSamples rebuilds the samples of a task from matching log records,
// silently skipping records whose config no longer fits the space.
func resumeSamples(recs []record.Record, task *tuner.Task) []active.Sample {
	var out []active.Sample
	for _, r := range recs {
		if r.Task != task.Name && r.Workload != task.Workload.Key() {
			continue
		}
		cfg, err := r.ToConfig(task.Space)
		if err != nil {
			continue
		}
		out = append(out, active.Sample{Config: cfg, GFLOPS: r.GFLOPS, Valid: r.Valid})
	}
	return out
}

// SortedTaskNames returns the deployment's task names in index order
// (T1, T2, ... as in Fig. 5).
func (d *Deployment) SortedTaskNames() []string {
	names := make([]string, 0, len(d.Tasks))
	for _, t := range d.Tasks {
		names = append(names, t.Task.Name)
	}
	sort.Slice(names, func(i, j int) bool {
		return taskIndex(names[i]) < taskIndex(names[j])
	})
	return names
}

// taskIndex parses the numeric suffix of "<model>.T<k>".
func taskIndex(name string) int {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == 'T' {
			k := 0
			for _, ch := range name[i+1:] {
				if ch < '0' || ch > '9' {
					return 0
				}
				k = k*10 + int(ch-'0')
			}
			return k
		}
	}
	return 0
}

// Summary renders a one-line deployment summary.
func (d *Deployment) Summary() string {
	return fmt.Sprintf("%s/%s: %.4f ms (var %.4g), %d tasks, %d measurements",
		d.Model, d.TunerName, d.LatencyMS, d.Variance, len(d.Tasks), d.TotalMeasurements)
}

// InitSamplesOf returns the first n samples of a result, a convenience for
// inspecting initialization quality in examples and docs.
func InitSamplesOf(r tuner.Result, n int) []active.Sample {
	if n > len(r.Samples) {
		n = len(r.Samples)
	}
	return r.Samples[:n]
}
