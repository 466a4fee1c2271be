// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (single trial, reduced budgets — the qualitative shape
// is preserved; cmd/repro -scale paper runs the full settings). Custom
// metrics are attached via b.ReportMetric:
//
//	gflops_*      best-so-far / final GFLOPS of an arm
//	latency_ms_*  end-to-end latency of an arm
//	dlat_pct      BTED+BAO latency delta vs AutoTVM (negative = better)
//	dvar_pct      BTED+BAO variance delta vs AutoTVM (negative = better)
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/job"
	"repro/internal/repro"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// benchCfg keeps one bench iteration in the seconds range on one core.
func benchCfg(seed int64) repro.Config {
	return repro.Config{Trials: 1, Budget: 160, EarlyStop: 96, PlanSize: 32, Runs: 200, Seed: seed}
}

// ---- Fig. 4: convergence curves (MobileNet-v1 T1, T2) ---------------------

func benchmarkFig4(b *testing.B, panel int) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(2021 + i))
		cfg.EarlyStop = -1
		results, err := repro.Fig4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := results[panel]
		for _, s := range r.Series {
			b.ReportMetric(s.Trace[len(s.Trace)-1], "gflops_"+s.Method)
		}
	}
}

func Benchmark_Fig4_T1(b *testing.B) { benchmarkFig4(b, 0) }
func Benchmark_Fig4_T2(b *testing.B) { benchmarkFig4(b, 1) }

// ---- Fig. 5: per-task configs and GFLOPS ratios ----------------------------

func Benchmark_Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(77 + i))
		res, err := repro.Fig5(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Avg.Configs[0], "configs_AutoTVM")
		b.ReportMetric(res.Avg.Configs[1], "configs_BTED")
		b.ReportMetric(res.Avg.Configs[2], "configs_BTED+BAO")
		b.ReportMetric(res.Avg.RatioPct[1], "gflops_pct_BTED")
		b.ReportMetric(res.Avg.RatioPct[2], "gflops_pct_BTED+BAO")
	}
}

// ---- Table I: end-to-end latency and variance per model --------------------

func benchmarkTable1(b *testing.B, model string) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(11 + i))
		store, err := job.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		res, err := repro.Table1(context.Background(), cfg, []string{model}, store)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		b.ReportMetric(row.LatencyMS[0], "latency_ms_AutoTVM")
		b.ReportMetric(row.LatencyMS[1], "latency_ms_BTED")
		b.ReportMetric(row.LatencyMS[2], "latency_ms_BTED+BAO")
		b.ReportMetric(row.DeltaLatPct[2], "dlat_pct")
		b.ReportMetric(row.DeltaVarPct[2], "dvar_pct")
	}
}

func Benchmark_TableI_AlexNet(b *testing.B)     { benchmarkTable1(b, "alexnet") }
func Benchmark_TableI_ResNet18(b *testing.B)    { benchmarkTable1(b, "resnet-18") }
func Benchmark_TableI_VGG16(b *testing.B)       { benchmarkTable1(b, "vgg-16") }
func Benchmark_TableI_MobileNetV1(b *testing.B) { benchmarkTable1(b, "mobilenet-v1") }
func Benchmark_TableI_SqueezeNet(b *testing.B)  { benchmarkTable1(b, "squeezenet-v1.1") }

// ---- Ablations --------------------------------------------------------------

func Benchmark_Ablation_Gamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(5 + i))
		cfg.Budget = 96
		res, err := repro.AblationGamma(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.RelPct, "rel_pct_"+row.Setting)
		}
	}
}

func Benchmark_Ablation_Init(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(6 + i))
		cfg.Budget = 96
		res, err := repro.AblationInit(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.RelPct, "rel_pct_"+row.Setting)
		}
	}
}

// ---- Component micro-benchmarks ---------------------------------------------

func Benchmark_BTED_Init(b *testing.B) {
	w := tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	p := active.DefaultBTEDParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if got := active.BTED(sp, p, rng); len(got) != p.M0 {
			b.Fatalf("BTED returned %d", len(got))
		}
	}
}

// Benchmark_BAO_Step times a fresh BAORun's first step. At R = 3 the
// first step enumerates the radius-3 ball (33,809 points); at R = 4.5 it
// searches the τR-sized ball (722,353 points) through the sampled path
// that dominates a BTED+BAO run. Both measure through MeasureSeeded, the
// tuning stack's only measurement call.
func Benchmark_BAO_Step(b *testing.B) {
	for _, r := range []float64{3, 4.5} {
		b.Run(fmt.Sprintf("R=%g", r), func(b *testing.B) { benchmarkBAOStep(b, r) })
	}
}

func benchmarkBAOStep(b *testing.B, r float64) {
	w := tensor.Conv2D(1, 64, 28, 28, 64, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	sim := hwsim.NewSimulator(hwsim.GTX1080Ti(), 1)
	measureSeeded := func(c space.Config) hwsim.Measurement {
		return sim.MeasureSeeded(w, c, hwsim.NoiseSeed(1, c.Flat()))
	}
	var init []active.Sample
	measured := make(map[uint64]bool)
	for _, c := range sp.RandomSample(64, rng.New(2).Rand()) {
		m := measureSeeded(c)
		init = append(init, active.Sample{Config: c, GFLOPS: m.GFLOPS, Valid: m.Valid})
		measured[c.Flat()] = true
	}
	// Every iteration takes the first step over the same initialization,
	// so the deployment is not recorded.
	measure := func(c space.Config) (float64, bool) {
		m := measureSeeded(c)
		return m.GFLOPS, m.Valid
	}
	p := active.DefaultBAOParams()
	p.R = r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := active.NewBAORun(sp, active.NewXGBTrainer(), init, p)
		run.Step(rng.New(int64(i)), init, measured, measure)
	}
}

func Benchmark_Simulator_Measure(b *testing.B) {
	w := tensor.Conv2D(1, 128, 28, 28, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	sim := hwsim.NewSimulator(hwsim.GTX1080Ti(), 1)
	rng := rand.New(rand.NewSource(1))
	cfgs := sp.RandomSample(256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Measure(w, cfgs[i%len(cfgs)])
	}
}

func Benchmark_Neighborhood_R3(b *testing.B) {
	w := tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	center := sp.Random(src.Rand())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Neighborhood(center, 3, space.NeighborhoodOpts{MaxCandidates: 2048}, src)
	}
}

func Benchmark_Neighborhood_TauR(b *testing.B) {
	w := tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	center := sp.Random(src.Rand())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Neighborhood(center, 4.5, space.NeighborhoodOpts{MaxCandidates: 2048}, src)
	}
}

func Benchmark_TaskExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range graph.ModelNames {
			g, err := graph.Model(m)
			if err != nil {
				b.Fatal(err)
			}
			if len(graph.ExtractTasks(g, graph.ConvOnly)) == 0 {
				b.Fatal("no tasks")
			}
		}
	}
}

func Benchmark_EndToEnd_Quickstart(b *testing.B) {
	w := tensor.Conv2D(1, 64, 28, 28, 128, 3, 1, 1)
	task, err := tuner.NewTask("bench.conv", w)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		bk := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), int64(i)))
		res, err := tuner.Tune(context.Background(), tuner.NewBTEDBAO(), task, bk, tuner.Options{
			Budget: 96, EarlyStop: -1, PlanSize: 24, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("nothing found")
		}
		b.ReportMetric(res.Best.GFLOPS, "gflops_best")
	}
}
