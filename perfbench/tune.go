package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/record"
	"repro/internal/tuner"
)

// runTunePasses runs the jobs in-process, one after another, the way
// cmd/tune does: job.Run with a record log. With a tracer each job also
// runs traced, right before or after its untraced run (alternating, so
// neither side always gets the warmer process).
func runTunePasses(ctx context.Context, jobs []benchJob, dir string, tr *tracer) (plain, traced []jobOut, p *tuneProbes, err error) {
	plain = make([]jobOut, len(jobs))
	if tr == nil {
		for i, j := range jobs {
			plain[i] = runTuneJob(ctx, j, dir)
		}
		return plain, nil, nil, nil
	}
	traced = make([]jobOut, len(jobs))
	p = &tuneProbes{phaseMS: map[string]float64{}}
	for i, j := range jobs {
		if i%2 == 0 {
			plain[i] = runTuneJob(ctx, j, dir)
		}
		if traced[i], err = p.runTraced(ctx, j, dir, tr); err != nil {
			return nil, nil, nil, err
		}
		if i%2 == 1 {
			plain[i] = runTuneJob(ctx, j, dir)
		}
	}
	return plain, traced, p, nil
}

func runTuneJob(ctx context.Context, j benchJob, dir string) jobOut {
	path := filepath.Join(dir, j.ID+".jsonl")
	o := jobOut{id: j.ID, due: time.Now()}
	res, err := job.Run(ctx, j.Spec, job.RunOptions{LogPath: path, OnTaskDone: o.taskDone})
	o.start, o.end = o.due, time.Now()
	o.finish(j.Spec, res, err, path)
	return o
}

// taskDone records one task's tuning wall time, by task index.
func (o *jobOut) taskDone(ev core.TaskEvent) {
	if o.taskS == nil {
		o.taskS = make([]float64, ev.Total)
	}
	o.taskS[ev.Index-1] = ev.Elapsed.Seconds()
}

// typicalWall estimates, robustly to host noise, the wall time of one job
// of each shape the jobs were stamped from, averaged over the shapes. A
// shape's estimate is assembled task by task: the sum over its tasks of
// the median (over the shape's repetitions) of the task's tuning time,
// plus the median of the rest of the job's wall time. A burst of noise
// that slows a few tasks of one repetition moves none of these medians,
// where it would move a job-level median of a handful of repetitions.
func typicalWall(jobs []benchJob, outs []jobOut) float64 {
	byShape := map[string][]jobOut{}
	var shapes []string
	for i, o := range outs {
		if !o.ok {
			continue
		}
		s := jobs[i].Template
		if byShape[s] == nil {
			shapes = append(shapes, s)
		}
		byShape[s] = append(byShape[s], o)
	}
	total := 0.0
	for _, s := range shapes {
		reps := byShape[s]
		est := 0.0
		rest := make([]float64, len(reps))
		for k := range reps[0].taskS {
			ts := make([]float64, len(reps))
			for r, o := range reps {
				ts[r] = o.taskS[k]
			}
			est += medianOr0(ts)
		}
		for r, o := range reps {
			rest[r] = o.end.Sub(o.start).Seconds()
			for _, t := range o.taskS {
				rest[r] -= t
			}
		}
		total += est + medianOr0(rest)
	}
	if len(shapes) == 0 {
		return 0
	}
	return total / float64(len(shapes))
}

// canonical returns a job's record stream in a run-independent order.
// With one task tuned at a time the log is deterministic byte for byte.
// With several, each task's records are deterministic but tasks interleave
// in the order their batches finish, so the lines are grouped by task,
// each task's own lines keeping their order.
func canonical(spec job.Spec, log []byte) ([]byte, error) {
	if spec.TaskConcurrency <= 1 {
		return log, nil
	}
	type line struct {
		task string
		data []byte
	}
	var lines []line
	for _, l := range bytes.SplitAfter(log, []byte("\n")) {
		if len(l) == 0 {
			continue
		}
		var rec struct {
			Task string `json:"task"`
		}
		if err := json.Unmarshal(l, &rec); err != nil {
			return nil, fmt.Errorf("reading record log: %w", err)
		}
		lines = append(lines, line{rec.Task, l})
	}
	sort.SliceStable(lines, func(a, b int) bool { return lines[a].task < lines[b].task })
	out := make([]byte, 0, len(log))
	for _, l := range lines {
		out = append(out, l.data...)
	}
	return out, nil
}

// finish fills a job's outcome from its run and its log file, then removes
// the file.
func (o *jobOut) finish(spec job.Spec, res *job.RunResult, err error, path string) {
	if err == nil {
		o.log, err = os.ReadFile(path)
	}
	if err == nil {
		o.log, err = canonical(spec, o.log)
	}
	if rerr := os.Remove(path); rerr != nil && err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	if err != nil {
		o.err = err.Error()
		return
	}
	o.ok = true
	o.deployMS = res.Deployment.LatencyMS
}

// tuneProbes accumulates what traced tune jobs measure beyond their
// spans.
type tuneProbes struct {
	phaseMS      map[string]float64 // tuner.PhaseTimes, summed over jobs
	unattributed float64            // ms; sequential-driver jobs only
	valid, lines int
	mem          memDelta
}

// runTraced runs one job through core.OptimizeModel with the
// PipelineOptions job.Run builds, plus probes: a timing backend, a timing
// bootstrap trainer on BTED+BAO, phase timers, and a record sink that
// appends and flushes exactly as job.Run's does.
func (p *tuneProbes) runTraced(ctx context.Context, j benchJob, dir string, tr *tracer) (jobOut, error) {
	spec := j.Spec
	mem := readMem()
	o := jobOut{id: j.ID, due: time.Now()}
	root := tr.add(0, j.ID, "job", o.due, o.due) // ended by tr.finish below

	sim, err := backend.New(spec.Device, spec.Seed)
	if err != nil {
		return o, err
	}
	tb := &timedBackend{inner: sim, tr: tr, parent: root, job: j.ID}
	var tn tuner.Tuner
	if spec.Tuner == "bted+bao" {
		a := tuner.NewBTEDBAO()
		a.Trainer = timedTrainer{inner: active.NewXGBTrainer(), tr: tr, parent: root, job: j.ID}
		tn = a
	} else if tn, err = job.NewTuner(spec.Tuner); err != nil {
		return o, err
	}
	phases := tuner.NewPhaseTimes()
	popts := core.PipelineOptions{
		Tuning: tuner.Options{
			Budget:    spec.Budget,
			EarlyStop: spec.EarlyStop,
			PlanSize:  spec.PlanSize,
			Seed:      spec.Seed,
			Workers:   spec.Workers,
			Phases:    phases,
		},
		Extract:         spec.Extract(),
		UseTransfer:     true,
		Runs:            spec.Runs,
		TaskConcurrency: spec.TaskConcurrency,
		BudgetPolicy:    spec.BudgetPolicy,
		OnTaskDone:      o.taskDone,
	}
	path := filepath.Join(dir, j.ID+".traced.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return o, err
	}
	sw := record.NewStreamWriter(f)
	planSize := popts.Tuning.Normalized().PlanSize
	var lineErr error
	popts.OnRecord = func(rec record.Record) {
		t0 := time.Now()
		line, err := record.Line(rec)
		if err != nil {
			lineErr = err
			return
		}
		if sw.AppendLine(line) == nil && sw.Count()%planSize == 0 {
			_ = sw.Flush() // latched; checked by the final Flush
		}
		tr.add(root, j.ID, "record.append", t0, time.Now())
		p.lines++
		if rec.Valid {
			p.valid++
		}
	}
	dep, err := core.OptimizeModel(ctx, spec.Model, tn, tb, popts)
	if ferr := sw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = lineErr
	}
	o.start, o.end = o.due, time.Now()
	tr.finish(root, o.end)
	o.finish(spec, &job.RunResult{Deployment: dep}, err, path)

	phaseSum, ms := 0.0, phases.Milliseconds()
	for _, name := range tunerPhases {
		p.phaseMS[name] += ms[name]
		phaseSum += ms[name]
	}
	if spec.TaskConcurrency == 1 {
		// Phase times are wall time only when one task runs at a time.
		wallMS := float64(o.end.Sub(o.start)) / 1e6
		p.unattributed += wallMS - phaseSum - tr.busy(j.ID, "backend.netlat")
	}
	p.mem.add(memSince(mem))
	return o, nil
}

// verifyTune checks the untraced streams against the traced ones, job by
// job: the probes must not change a single record.
func verifyTune(r *report, plain, traced []jobOut) {
	for i := range plain {
		r.check(traced[i].ok, "traced job %s: %s", traced[i].id, traced[i].err)
		r.check(bytes.Equal(plain[i].log, traced[i].log),
			"job %s: traced record stream (%d bytes) differs from job.Run's (%d bytes)", plain[i].id, len(traced[i].log), len(plain[i].log))
	}
}

// tuneLayers sets the per-layer metrics of a traced tune pass.
func tuneLayers(r *report, outs []jobOut, p *tuneProbes, tr *tracer) {
	st := tr.byName()
	r.set("backend.measure_calls", float64(st["backend.measure"].count))
	r.set("backend.measure_busy_ms", st["backend.measure"].busyMS)
	r.set("backend.netlat_busy_ms", st["backend.netlat"].busyMS)
	r.set("tuner.init_set_ms", p.phaseMS[tuner.PhaseInitSet])
	r.set("tuner.surrogate_train_ms", p.phaseMS[tuner.PhaseSurrogateTrain])
	r.set("tuner.candidate_selection_ms", p.phaseMS[tuner.PhaseCandidateSelection])
	r.set("tuner.measurement_ms", p.phaseMS[tuner.PhaseMeasurement])
	r.set("tuner.valid_frac", 0)
	if p.lines > 0 {
		r.set("tuner.valid_frac", float64(p.valid)/float64(p.lines))
	}
	goLayers(r, p.mem)
	r.set("active.bootstrap_train_calls", float64(st["active.bootstrap_train"].count))
	r.set("active.bootstrap_train_cpu_ms", st["active.bootstrap_train"].busyMS)
	r.set("sched.unattributed_ms", p.unattributed)
	r.set("record.lines", float64(st["record.append"].count))
	r.set("record.append_busy_ms", st["record.append"].busyMS)
	size := 0
	for _, o := range outs {
		size += len(o.log)
	}
	r.set("record.bytes", float64(size))
	r.set("job.store_mb", float64(size)/(1<<20))
	var run []float64
	for _, o := range outs {
		run = append(run, o.end.Sub(o.start).Seconds())
	}
	r.set("job.run_p50_s", medianOr0(run))
	for _, name := range []string{
		"backend.cache_hit_frac", "backend.cache_misses", "backend.cache_evictions",
		"job.queue_wait_p50_s", "job.queue_depth_max", "job.snap_mb",
		"serve.submit_p50_ms", "serve.rejected", "serve.list_p50_ms", "serve.ttfr_p50_ms", "serve.sse_events", "serve.sse_mb",
		"bench.generator_late_p50_ms", "bench.generator_late_max_ms",
	} {
		r.set(name, 0)
	}
}

// describeTune prints where a traced tune pass spent its time. With one
// task at a time the phases add up to wall time; with several they are
// CPU time summed over concurrent tasks.
func describeTune(stdout io.Writer, outs []jobOut, p *tuneProbes) {
	wall, phases := 0.0, 0.0
	for _, o := range outs {
		wall += float64(o.end.Sub(o.start)) / 1e6
	}
	for _, name := range tunerPhases {
		phases += p.phaseMS[name]
	}
	if phases <= 0 {
		return
	}
	fmt.Fprintf(stdout, "# traced tuning: wall %.0f ms, phases %.0f ms:", wall, phases)
	for _, name := range tunerPhases {
		fmt.Fprintf(stdout, " %s %.1f%%", name, 100*p.phaseMS[name]/phases)
	}
	fmt.Fprintln(stdout)
}

var tunerPhases = []string{tuner.PhaseInitSet, tuner.PhaseSurrogateTrain, tuner.PhaseCandidateSelection, tuner.PhaseMeasurement}
