package core

import (
	"bytes"
	"context"
	"reflect"
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
	for _, o := range dep.Tasks {
		if !o.Result.Found {
			t.Fatalf("task %s found no valid config", o.Task.Name)
		}
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
	if !reflect.DeepEqual(loaded, recs) {
		t.Fatal("records changed across the log round trip")
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
