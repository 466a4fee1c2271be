package repro

import (
	"context"
	"fmt"
	"io"
)

// Fig5Row holds one MobileNet-v1 task's results across the three methods:
// the number of sampled configurations (Fig. 5a) and the best GFLOPS with
// its ratio to AutoTVM in percent (Fig. 5b).
type Fig5Row struct {
	Task     string
	Configs  [3]float64 // mean sampled configurations per method
	GFLOPS   [3]float64 // mean best GFLOPS per method
	RatioPct [3]float64 // 100 * GFLOPS / GFLOPS[AutoTVM]
}

// Fig5Result is the full figure: 19 task rows plus the AVG row.
type Fig5Result struct {
	Rows []Fig5Row
	Avg  Fig5Row
}

// Fig5 regenerates the per-task comparison of the paper's Fig. 5 over all
// 19 MobileNet-v1 conv/depthwise tasks with early stopping enabled.
func Fig5(ctx context.Context, cfg Config) (*Fig5Result, error) {
	tasks, err := mobilenetTasks()
	if err != nil {
		return nil, err
	}
	res, err := RunGrid(ctx, cfg.grid("fig5", methodArms(), tasks, cfg.EarlyStop))
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{}
	for ti := range tasks {
		row := Fig5Row{Task: fmt.Sprintf("T%d", ti+1)}
		for mi := range Methods {
			var configs, gflops []float64
			for _, r := range res.Trials(mi, ti) {
				configs = append(configs, float64(r.Measurements))
				if r.Found {
					gflops = append(gflops, r.Best.GFLOPS)
				}
			}
			row.Configs[mi] = meanOf(configs)
			row.GFLOPS[mi] = meanOf(gflops)
		}
		for mi := range Methods {
			if row.GFLOPS[0] > 0 {
				row.RatioPct[mi] = 100 * row.GFLOPS[mi] / row.GFLOPS[0]
			}
		}
		out.Rows = append(out.Rows, row)
	}

	avg := Fig5Row{Task: "AVG"}
	for mi := range Methods {
		var cs, rs []float64
		for _, row := range out.Rows {
			cs = append(cs, row.Configs[mi])
			rs = append(rs, row.RatioPct[mi])
		}
		avg.Configs[mi] = meanOf(cs)
		avg.RatioPct[mi] = meanOf(rs)
	}
	out.Avg = avg
	return out, nil
}

// Print renders both panels as text tables.
func (r *Fig5Result) Print(w io.Writer) {
	fprintf(w, "Fig.5(a) number of sampled configurations\n")
	fprintf(w, "%-5s", "task")
	for _, m := range Methods {
		fprintf(w, " %10s", m)
	}
	fprintf(w, "\n")
	for _, row := range append(append([]Fig5Row{}, r.Rows...), r.Avg) {
		fprintf(w, "%-5s", row.Task)
		for mi := range Methods {
			fprintf(w, " %10.0f", row.Configs[mi])
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\nFig.5(b) GFLOPS relative to AutoTVM (%%)\n")
	fprintf(w, "%-5s", "task")
	for _, m := range Methods {
		fprintf(w, " %10s", m)
	}
	fprintf(w, "\n")
	for _, row := range append(append([]Fig5Row{}, r.Rows...), r.Avg) {
		fprintf(w, "%-5s", row.Task)
		for mi := range Methods {
			fprintf(w, " %10.2f", row.RatioPct[mi])
		}
		fprintf(w, "\n")
	}
}

// ImprovementSummary returns the average GFLOPS improvement of BTED and
// BTED+BAO over AutoTVM in percent (the paper reports up-to values of
// 36.74% and 47.94%, averages lower).
func (r *Fig5Result) ImprovementSummary() (btedPct, baoPct float64) {
	return r.Avg.RatioPct[1] - 100, r.Avg.RatioPct[2] - 100
}
