package repro

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// tinyCfg keeps repro tests fast: single trial, small budgets.
func tinyCfg() Config {
	return Config{Trials: 1, Budget: 48, EarlyStop: -1, PlanSize: 12, Runs: 60, Seed: 7}
}

func TestMethodsAndTuners(t *testing.T) {
	if len(Methods) != 3 {
		t.Fatal("paper has three experimental arms")
	}
	names := []string{"autotvm", "bted", "bted+bao"}
	for i, want := range names {
		if got := NewMethodTuner(i).Name(); got != want {
			t.Fatalf("method %d = %q, want %q", i, got, want)
		}
	}
}

func TestConfigsPresets(t *testing.T) {
	p := Paper()
	if p.Trials != 10 || p.Budget != 1024 || p.EarlyStop != 400 || p.PlanSize != 64 || p.Runs != 600 {
		t.Fatalf("paper config wrong: %+v", p)
	}
	q := Quick()
	if q.Trials >= p.Trials || q.Budget >= p.Budget {
		t.Fatal("quick config must be smaller than paper config")
	}
}

func TestMobilenetTasks(t *testing.T) {
	tasks, err := mobilenetTasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 19 {
		t.Fatalf("tasks = %d, want 19", len(tasks))
	}
}

func TestFig4Tiny(t *testing.T) {
	cfg := tinyCfg()
	var msgs []string
	cfg.Progress = func(s string) { msgs = append(msgs, s) }
	res, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("panels = %d, want 2", len(res))
	}
	if len(msgs) == 0 {
		t.Fatal("progress not reported")
	}
	for _, panel := range res {
		if len(panel.Series) != 3 {
			t.Fatalf("series = %d", len(panel.Series))
		}
		for _, s := range panel.Series {
			if len(s.Trace) != cfg.Budget {
				t.Fatalf("trace len %d, want %d", len(s.Trace), cfg.Budget)
			}
			for i := 1; i < len(s.Trace); i++ {
				if s.Trace[i] < s.Trace[i-1] {
					t.Fatal("averaged best-so-far trace must be non-decreasing")
				}
			}
		}
		final := panel.FinalGFLOPS()
		if len(final) != 3 {
			t.Fatalf("final map = %v", final)
		}
		var buf bytes.Buffer
		panel.Print(&buf, 16)
		if !strings.Contains(buf.String(), panel.Task) {
			t.Fatal("print missing task name")
		}
	}
}

func TestPadTrace(t *testing.T) {
	got := padTrace([]float64{1, 3}, 4)
	want := []float64{1, 3, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("padTrace = %v", got)
		}
	}
	if got := padTrace(nil, 2); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty padTrace = %v", got)
	}
	if got := padTrace([]float64{1, 2, 3}, 2); len(got) != 2 || got[1] != 2 {
		t.Fatalf("truncating padTrace = %v", got)
	}
}

func TestFig4Check(t *testing.T) {
	r := Fig4Result{Task: "x", Series: []Fig4Series{
		{Method: "AutoTVM", Trace: []float64{100}},
		{Method: "BTED", Trace: []float64{110}},
		{Method: "BTED+BAO", Trace: []float64{120}},
	}}
	if err := Fig4Check(r, 0.05); err != nil {
		t.Fatalf("winning methods should pass: %v", err)
	}
	r.Series[2].Trace = []float64{50}
	if err := Fig4Check(r, 0.05); err == nil {
		t.Fatal("losing method should fail the check")
	}
}

func TestFig5TinySubsetViaRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 19 tasks x 3 methods")
	}
	cfg := tinyCfg()
	cfg.Budget = 30
	cfg.PlanSize = 8
	res, err := Fig5(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 19 {
		t.Fatalf("rows = %d, want 19", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GFLOPS[0] != 0 && math.Abs(row.RatioPct[0]-100) > 1e-9 {
			t.Fatalf("AutoTVM ratio must be 100, got %v", row.RatioPct[0])
		}
		for mi := range Methods {
			if row.Configs[mi] <= 0 || row.Configs[mi] > float64(cfg.Budget) {
				t.Fatalf("configs out of range: %v", row.Configs[mi])
			}
		}
	}
	if res.Avg.Task != "AVG" {
		t.Fatal("missing AVG row")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Fig.5(a)") || !strings.Contains(out, "Fig.5(b)") || !strings.Contains(out, "AVG") {
		t.Fatal("print missing sections")
	}
	b, bao := res.ImprovementSummary()
	_ = b
	_ = bao // values are noisy at tiny budgets; presence is the contract
}

func TestTable1SingleSmallModel(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a whole model x 3 methods")
	}
	cfg := tinyCfg()
	cfg.Budget = 24
	cfg.PlanSize = 8
	cfg.EarlyStop = -1
	res, err := Table1(context.Background(), cfg, []string{"squeezenet-v1.1"}, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	for mi := range Methods {
		if row.LatencyMS[mi] <= 0 || row.Variance[mi] <= 0 {
			t.Fatalf("method %s latency %v var %v", Methods[mi], row.LatencyMS[mi], row.Variance[mi])
		}
	}
	if row.DeltaLatPct[0] != 0 || row.DeltaVarPct[0] != 0 {
		t.Fatal("AutoTVM deltas must be zero")
	}
	if res.Avg.Model != "Average" {
		t.Fatal("missing Average row")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "squeezenet-v1.1") {
		t.Fatal("print missing model")
	}
	lat, variance := res.Headline()
	if lat > 0 || variance > 0 {
		t.Fatalf("headline deltas should be <= 0: %v %v", lat, variance)
	}
}

func TestTable1UnknownModel(t *testing.T) {
	cfg := tinyCfg()
	if _, err := Table1(context.Background(), cfg, []string{"nope"}, openStore(t)); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestAblationTasksSubset(t *testing.T) {
	tasks, err := ablationTasks(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("subset = %d", len(tasks))
	}
	seen := make(map[string]bool)
	for _, tk := range tasks {
		if seen[tk.Name] {
			t.Fatal("duplicate ablation task")
		}
		seen[tk.Name] = true
	}
}

func TestAblationCeilTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning")
	}
	cfg := tinyCfg()
	cfg.Budget = 24
	cfg.PlanSize = 8
	res, err := AblationCeil(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].RelPct != 100 {
		t.Fatalf("default row rel = %v", res.Rows[0].RelPct)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "literal-ceil") {
		t.Fatal("print missing setting")
	}
}

func TestMeanOf(t *testing.T) {
	if meanOf(nil) != 0 {
		t.Fatal("empty mean")
	}
	if meanOf([]float64{2, 4}) != 3 {
		t.Fatal("mean wrong")
	}
}
