package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/record"
	"repro/internal/tuner"
)

// tinyGraph builds a 3-kernel model small enough for fast end-to-end tests.
func tinyGraph() *graph.Graph {
	b := graph.NewBuilder("tiny")
	x := b.Input("data", 1, 3, 32, 32)
	x = b.ReLU("relu1", b.Conv("conv1", x, 16, 3, 1, 1))
	x = b.ReLU("relu2", b.DepthwiseConv("dw", x, 3, 1, 1))
	x = b.MaxPool("pool", x, 2, 2, 0, false)
	x = b.Flatten("flat", x)
	x = b.Dense("fc", x, 10)
	return b.Finish(b.Softmax("prob", x))
}

// testBackend builds the standard single-device backend used across the
// pipeline tests.
func testBackend(t *testing.T, seed int64) backend.Backend {
	t.Helper()
	b, err := backend.New("gtx1080ti", seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func quickPipelineOpts(budget int) PipelineOptions {
	return PipelineOptions{
		Tuning:  tuner.Options{Budget: budget, EarlyStop: -1, PlanSize: 8, Seed: 1},
		Extract: graph.AllOps,
		Runs:    100,
	}
}

func TestOptimizeGraphEndToEnd(t *testing.T) {
	dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.RandomTuner{}, testBackend(t, 1), quickPipelineOpts(30))
	if err != nil {
		t.Fatal(err)
	}
	if dep.LatencyMS <= 0 || dep.Variance <= 0 {
		t.Fatalf("latency %v var %v", dep.LatencyMS, dep.Variance)
	}
	if len(dep.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3 (conv, dw, dense)", len(dep.Tasks))
	}
	if dep.TotalMeasurements == 0 {
		t.Fatal("no measurements accounted")
	}
	if dep.Summary() == "" {
		t.Fatal("summary empty")
	}
	best := dep.BestGFLOPSByTask()
	if len(best) != 3 {
		t.Fatalf("best map size %d", len(best))
	}
}

func TestOptimizeModelUnknown(t *testing.T) {
	if _, err := OptimizeModel(context.Background(), "nope", tuner.RandomTuner{}, testBackend(t, 1), quickPipelineOpts(10)); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestProgressCallback(t *testing.T) {
	opts := quickPipelineOpts(20)
	var seen []string
	opts.Progress = func(i, n int, name string) {
		if n != 3 {
			t.Fatalf("total = %d", n)
		}
		seen = append(seen, name)
	}
	if _, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.RandomTuner{}, testBackend(t, 2), opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("progress called %d times", len(seen))
	}
}

func TestRecordsRoundTripThroughApply(t *testing.T) {
	b := testBackend(t, 3)
	g := tinyGraph()
	dep, err := OptimizeGraph(context.Background(), g, tuner.RandomTuner{}, b, quickPipelineOpts(25))
	if err != nil {
		t.Fatal(err)
	}
	recs := dep.Records()
	if len(recs) != dep.TotalMeasurements {
		t.Fatalf("records = %d, measurements = %d", len(recs), dep.TotalMeasurements)
	}
	var buf bytes.Buffer
	if err := record.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	loaded, err := record.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// ApplyRecords only works for registered models; use mobilenet tasks
	// indirectly by checking the error path first.
	if _, _, err := ApplyRecords("nope", loaded, b, graph.AllOps, 50); err == nil {
		t.Fatal("unknown model should error")
	}
	// Missing records for a real model also error.
	if _, _, err := ApplyRecords("mobilenet-v1", nil, b, graph.ConvOnly, 50); err == nil {
		t.Fatal("missing records should error")
	}
}

func TestApplyRecordsRealModel(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a real model")
	}
	b := testBackend(t, 4)
	opts := PipelineOptions{
		Tuning:  tuner.Options{Budget: 12, EarlyStop: -1, PlanSize: 8, Seed: 9},
		Extract: graph.ConvOnly,
		Runs:    50,
	}
	dep, err := OptimizeModel(context.Background(), "squeezenet-v1.1", tuner.RandomTuner{}, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	lat, variance, err := ApplyRecords("squeezenet-v1.1", dep.Records(), b, graph.ConvOnly, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || variance <= 0 {
		t.Fatalf("applied latency %v var %v", lat, variance)
	}
}

func TestSortedTaskNames(t *testing.T) {
	dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.RandomTuner{}, testBackend(t, 5), quickPipelineOpts(15))
	if err != nil {
		t.Fatal(err)
	}
	names := dep.SortedTaskNames()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i, n := range names {
		if taskIndex(n) != i+1 {
			t.Fatalf("names not in T-order: %v", names)
		}
	}
}

func TestTaskIndexParsing(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"mobilenet-v1.T7", 7}, {"m.T19", 19}, {"weird", 0}, {"m.Tx", 0},
	}
	for _, c := range cases {
		if got := taskIndex(c.in); got != c.want {
			t.Errorf("taskIndex(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestUseTransferPipeline(t *testing.T) {
	opts := quickPipelineOpts(24)
	opts.UseTransfer = true
	dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.NewAutoTVM(), testBackend(t, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Tasks[0].Result.Found {
		t.Fatal("transfer pipeline failed")
	}
}

func TestInitSamplesOf(t *testing.T) {
	task, err := tuner.NewTask("x", tinyGraph().TunableNodes()[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), tuner.RandomTuner{}, task, testBackend(t, 7), tuner.Options{Budget: 10, EarlyStop: -1, PlanSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := InitSamplesOf(res, 4); len(got) != 4 {
		t.Fatalf("init samples = %d", len(got))
	}
	if got := InitSamplesOf(res, 1000); len(got) != res.Measurements {
		t.Fatal("oversized init request should clamp")
	}
}
