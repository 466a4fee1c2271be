package repro

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/stats"
)

// Table1Row is one model row of the paper's Table I: end-to-end latency
// (ms) and run-to-run variance per method, with improvement deltas against
// AutoTVM in percent.
type Table1Row struct {
	Model       string
	LatencyMS   [3]float64 // AutoTVM, BTED, BTED+BAO
	Variance    [3]float64
	DeltaLatPct [3]float64 // [0] is always 0
	DeltaVarPct [3]float64
}

// Table1Result is the full table plus the Average row.
type Table1Result struct {
	Rows []Table1Row
	Avg  Table1Row
}

// Table1 regenerates the end-to-end comparison of Table I over the given
// models (nil means all five paper models): every tunable task of each
// model is tuned by each method, the best configurations are deployed
// together, and the latency statistics over cfg.Runs simulated inferences
// are averaged across trials.
//
// Each (model, method, trial) cell is one job (see table1Spec) run by a
// job.Manager over store, sharing one measurement memo. A cell the store
// already finished is read back by its SpecID instead of re-tuned, and an
// interrupted one resumes from its last checkpoint, so rerunning a killed
// study over the same store continues it to the same numbers.
func Table1(ctx context.Context, cfg Config, models []string, store *job.Store) (*Table1Result, error) {
	if len(models) == 0 {
		models = graph.ModelNames
	}
	var specs []job.Spec
	var names []string
	for _, model := range models {
		for mi := range Methods {
			for trial := 0; trial < cfg.Trials; trial++ {
				specs = append(specs, cfg.table1Spec(model, mi, trial))
				names = append(names, fmt.Sprintf("table1 %s %s trial %d/%d", model, Methods[mi], trial+1, cfg.Trials))
			}
		}
	}
	cells, err := runJobs(ctx, cfg, store, specs, names)
	if err != nil {
		return nil, err
	}

	res := &Table1Result{}
	for _, model := range models {
		row := Table1Row{Model: model}
		for mi := range Methods {
			var lats, vars []float64
			for _, c := range cells[:cfg.Trials] {
				lats = append(lats, c.LatencyMS)
				vars = append(vars, c.Variance)
			}
			cells = cells[cfg.Trials:]
			row.LatencyMS[mi] = meanOf(lats)
			row.Variance[mi] = meanOf(vars)
		}
		for mi := 1; mi < 3; mi++ {
			row.DeltaLatPct[mi] = stats.DeltaPercent(row.LatencyMS[0], row.LatencyMS[mi])
			row.DeltaVarPct[mi] = stats.DeltaPercent(row.Variance[0], row.Variance[mi])
		}
		res.Rows = append(res.Rows, row)
	}

	avg := Table1Row{Model: "Average"}
	for mi := range Methods {
		var ls, vs []float64
		for _, row := range res.Rows {
			ls = append(ls, row.LatencyMS[mi])
			vs = append(vs, row.Variance[mi])
		}
		avg.LatencyMS[mi] = meanOf(ls)
		avg.Variance[mi] = meanOf(vs)
	}
	for mi := 1; mi < 3; mi++ {
		avg.DeltaLatPct[mi] = stats.DeltaPercent(avg.LatencyMS[0], avg.LatencyMS[mi])
		avg.DeltaVarPct[mi] = stats.DeltaPercent(avg.Variance[0], avg.Variance[mi])
	}
	res.Avg = avg
	return res, nil
}

// Print renders the table in the paper's column layout.
func (r *Table1Result) Print(w io.Writer) {
	fprintf(w, "Table I: end-to-end model inference latency and variance\n")
	fprintf(w, "%-16s | %12s %12s | %12s %8s %12s %8s | %12s %8s %12s %8s\n",
		"Model", "AutoTVM lat", "variance",
		"BTED lat", "dLat%", "variance", "dVar%",
		"B+BAO lat", "dLat%", "variance", "dVar%")
	rows := append(append([]Table1Row{}, r.Rows...), r.Avg)
	for _, row := range rows {
		fprintf(w, "%-16s | %12.4f %12.4g | %12.4f %8.2f %12.4g %8.2f | %12.4f %8.2f %12.4g %8.2f\n",
			row.Model,
			row.LatencyMS[0], row.Variance[0],
			row.LatencyMS[1], row.DeltaLatPct[1], row.Variance[1], row.DeltaVarPct[1],
			row.LatencyMS[2], row.DeltaLatPct[2], row.Variance[2], row.DeltaVarPct[2])
	}
}

// Headline returns the best (most negative) latency and variance deltas of
// the BTED+BAO column — the numbers the paper's abstract quotes
// (-28.08% latency, -92.74% variance on MobileNet-v1).
func (r *Table1Result) Headline() (bestLatDeltaPct, bestVarDeltaPct float64) {
	bestLat, bestVar := 0.0, 0.0
	for _, row := range r.Rows {
		if row.DeltaLatPct[2] < bestLat {
			bestLat = row.DeltaLatPct[2]
		}
		if row.DeltaVarPct[2] < bestVar {
			bestVar = row.DeltaVarPct[2]
		}
	}
	return bestLat, bestVar
}

// table1Spec is one Table I cell as a job: every arm of a trial runs with
// the trial's seed, and job.Run seeds both the backend (whose simulator
// also draws the latency runs) and the tuner from it. Checkpoints land
// about four times per task budget.
func (c Config) table1Spec(model string, mi, trial int) job.Spec {
	return job.Spec{
		Model: model, Tuner: NewMethodTuner(mi).Name(), Ops: "all",
		Seed: c.trialSeed(trial), Budget: c.Budget, EarlyStop: c.EarlyStop,
		PlanSize: c.PlanSize, Runs: c.Runs, TaskConcurrency: c.TaskConcurrency,
		BudgetPolicy: c.BudgetPolicy, CheckpointEvery: c.Budget / 4,
	}.Normalized()
}

// runJobs runs specs as jobs of a manager over store and returns their
// terminal results in spec order; names[i] labels spec i in progress
// lines. Specs the store already finished are read back, and interrupted
// ones (recovered with their checkpoint) resume. On cancellation the
// manager shuts down, leaving every running job resumable.
func runJobs(ctx context.Context, cfg Config, store *job.Store, specs []job.Spec, names []string) ([]job.Result, error) {
	sc := backend.NewSharedCache(0)
	m := job.NewManagerWith(store, job.ManagerOptions{Concurrency: par.Workers(), Shared: sc})
	defer m.Close()
	if err := m.Recover(); err != nil {
		return nil, err
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = job.SpecID(spec)
		st, err := m.Status(ids[i])
		switch {
		case err == nil && st.State.Terminal():
			cfg.progress("%s: in store", names[i])
		case err == nil && st.Resumed:
			cfg.progress("%s: resuming from its checkpoint", names[i])
		case err == nil:
			// Recovered before its first checkpoint: it reruns from scratch.
		case errors.Is(err, job.ErrNotFound):
			if _, err := m.Submit(job.Submit{Spec: spec}); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
	}
	out := make([]job.Result, len(specs))
	for i, id := range ids {
		st, err := waitJob(ctx, m, id)
		if err != nil {
			return nil, err
		}
		if st.State != job.StateDone || st.Result == nil {
			return nil, fmt.Errorf("repro: %s: job %s ended %s: %s", names[i], id, st.State, st.Error)
		}
		out[i] = *st.Result
		cfg.progress("%s", names[i])
	}
	cs := sc.Stats()
	cfg.progress("table1: shared cache %d hits, %d misses", cs.Hits, cs.Misses)
	return out, nil
}

// waitJob blocks until the job reaches a terminal state (or ctx ends) and
// returns its final status.
func waitJob(ctx context.Context, m *job.Manager, id string) (job.Status, error) {
	st, err := m.Status(id)
	if err != nil || st.State.Terminal() {
		return st, err
	}
	sub, err := m.Subscribe(id, st.Records)
	if err != nil {
		return job.Status{}, err
	}
	defer sub.Close()
	for {
		_, more, err := sub.Next(ctx)
		if err != nil {
			return job.Status{}, err
		}
		if !more {
			return m.Status(id)
		}
	}
}
