package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/plot"
)

// Fig4Series is one convergence curve: best-so-far GFLOPS after each
// sampled configuration, averaged over trials.
type Fig4Series struct {
	Method string
	Trace  []float64 // length == Config.Budget
}

// Fig4Result is one panel of Fig. 4 (one MobileNet-v1 layer).
type Fig4Result struct {
	Task   string
	Series []Fig4Series
}

// Fig4 regenerates the convergence comparison of the paper's Fig. 4: the
// first two MobileNet-v1 layers tuned by the three methods with no early
// stopping, plotting best-so-far GFLOPS against the number of sampled
// configurations.
func Fig4(ctx context.Context, cfg Config) ([]Fig4Result, error) {
	g, err := fig4Grid(cfg)
	if err != nil {
		return nil, err
	}
	res, err := RunGrid(ctx, g)
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Result, len(g.Tasks))
	for ti, task := range g.Tasks {
		out[ti].Task = task.Name
		for ai, arm := range g.Arms {
			out[ti].Series = append(out[ti].Series, Fig4Series{Method: arm.Name, Trace: MeanBestTrace(res.Trials(ai, ti), cfg.Budget)})
		}
	}
	return out, nil
}

// fig4Grid is Fig. 4's study: the three methods on MobileNet-v1 T1 and T2
// over the full budget (Fig. 4 plots it all, so no early stopping).
func fig4Grid(cfg Config) (Grid, error) {
	tasks, err := mobilenetTasks()
	if err != nil {
		return Grid{}, err
	}
	if len(tasks) < 2 {
		return Grid{}, fmt.Errorf("repro: expected at least 2 MobileNet tasks, got %d", len(tasks))
	}
	return cfg.grid("fig4", methodArms(), tasks[:2], -1), nil
}

// FinalGFLOPS returns each method's end-of-budget value.
func (r Fig4Result) FinalGFLOPS() map[string]float64 {
	out := make(map[string]float64, len(r.Series))
	for _, s := range r.Series {
		if len(s.Trace) > 0 {
			out[s.Method] = s.Trace[len(s.Trace)-1]
		}
	}
	return out
}

// Print renders the panel as a sampled text series (every stride-th point),
// one row per sample count, one column per method — the data behind the
// paper's line plot.
func (r Fig4Result) Print(w io.Writer, stride int) {
	if stride <= 0 {
		stride = 64
	}
	fprintf(w, "Fig.4 convergence: %s (best-so-far GFLOPS)\n", r.Task)
	fprintf(w, "%8s", "#configs")
	for _, s := range r.Series {
		fprintf(w, " %12s", s.Method)
	}
	fprintf(w, "\n")
	n := 0
	for _, s := range r.Series {
		if len(s.Trace) > n {
			n = len(s.Trace)
		}
	}
	for i := stride - 1; i < n; i += stride {
		fprintf(w, "%8d", i+1)
		for _, s := range r.Series {
			v := 0.0
			if i < len(s.Trace) {
				v = s.Trace[i]
			}
			fprintf(w, " %12.1f", v)
		}
		fprintf(w, "\n")
	}
}

// Chart renders the panel as an ASCII line chart.
func (r Fig4Result) Chart(w io.Writer) {
	series := make([]plot.Series, len(r.Series))
	for i, s := range r.Series {
		series[i] = plot.Series{Name: s.Method, Values: s.Trace}
	}
	lc := plot.LineChart{
		Title:  fmt.Sprintf("Fig.4 %s: best-so-far GFLOPS vs #configs", r.Task),
		XLabel: fmt.Sprintf("#configs (0..%d)", len(r.Series[0].Trace)),
	}
	// Chart is a best-effort stdout report; a failed terminal write must
	// not abort the experiment whose numbers are already computed.
	_ = lc.Render(w, series)
}

// Fig4Check verifies the qualitative reproduction claim on a result: the
// advanced methods end at or above AutoTVM's final value (within tol
// fraction), as in the paper's panels.
func Fig4Check(r Fig4Result, tol float64) error {
	final := r.FinalGFLOPS()
	base := final["AutoTVM"]
	for _, m := range Methods[1:] {
		if final[m] < base*(1-tol) {
			return fmt.Errorf("repro: %s: %s final %.1f below AutoTVM %.1f beyond tolerance",
				r.Task, m, final[m], base)
		}
	}
	return nil
}
