// Cross-module integration tests: end-to-end invariants that no single
// package test can check — graph -> space -> tuner -> simulator -> pipeline
// -> records -> resume.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/record"
	"repro/internal/tuner"
)

// fastOpts are shared scaled-down pipeline options.
func fastOpts(budget int, seed int64) core.PipelineOptions {
	return core.PipelineOptions{
		Tuning:  tuner.Options{Budget: budget, EarlyStop: -1, PlanSize: 8, Seed: seed},
		Extract: graph.ConvOnly,
		Runs:    100,
	}
}

func TestIntegration_TuneDeployResume(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a real model")
	}
	b := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 1))
	dep, err := core.OptimizeModel(context.Background(), "squeezenet-v1.1", tuner.RandomTuner{}, b, fastOpts(16, 7))
	if err != nil {
		t.Fatal(err)
	}

	// Records round-trip through the log format.
	var buf bytes.Buffer
	if err := record.Write(&buf, dep.Records()); err != nil {
		t.Fatal(err)
	}
	recs, err := record.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != dep.TotalMeasurements {
		t.Fatalf("logged %d of %d measurements", len(recs), dep.TotalMeasurements)
	}

	// Resuming from the log: a fresh run starts no worse than the logged
	// best on every task.
	opts := fastOpts(8, 99)
	opts.Resume = recs
	dep2, err := core.OptimizeModel(context.Background(), "squeezenet-v1.1", tuner.RandomTuner{}, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range dep.Tasks {
		if o2 := dep2.Tasks[i]; o.Result.Found && o2.Result.Best.GFLOPS < o.Result.Best.GFLOPS {
			t.Fatalf("task %s resumed best %.1f below logged %.1f", o.Task.Name, o2.Result.Best.GFLOPS, o.Result.Best.GFLOPS)
		}
	}
}

func TestIntegration_GraphSerializationFeedsPipeline(t *testing.T) {
	// A model serialized to JSON and read back must tune identically
	// (same tasks, same spaces, same deterministic results).
	g := graph.MobileNetV1()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t1 := graph.ExtractTasks(g, graph.ConvOnly)
	t2 := graph.ExtractTasks(g2, graph.ConvOnly)
	task1, err := tuner.FromGraphTask(t1[2])
	if err != nil {
		t.Fatal(err)
	}
	task2, err := tuner.FromGraphTask(t2[2])
	if err != nil {
		t.Fatal(err)
	}
	if task1.Space.Size() != task2.Space.Size() {
		t.Fatal("space changed across serialization")
	}
	opts := tuner.Options{Budget: 20, EarlyStop: -1, PlanSize: 8, Seed: 5}
	r1, err := tuner.Tune(context.Background(), tuner.NewAutoTVM(), task1, backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 3)), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tuner.Tune(context.Background(), tuner.NewAutoTVM(), task2, backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 3)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.GFLOPS != r2.Best.GFLOPS {
		t.Fatalf("deserialized graph tunes differently: %.3f vs %.3f", r1.Best.GFLOPS, r2.Best.GFLOPS)
	}
}

func TestIntegration_DeterministicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a real model twice")
	}
	run := func() *core.Deployment {
		b := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 11))
		dep, err := core.OptimizeModel(context.Background(), "alexnet", tuner.NewAutoTVM(), b, core.PipelineOptions{
			Tuning:  tuner.Options{Budget: 24, EarlyStop: -1, PlanSize: 8, Seed: 13},
			Extract: graph.AllOps,
			Runs:    100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	a := run()
	b := run()
	if a.LatencyMS != b.LatencyMS || a.Variance != b.Variance || a.TotalMeasurements != b.TotalMeasurements {
		t.Fatalf("pipeline not deterministic: %v/%v vs %v/%v", a.LatencyMS, a.Variance, b.LatencyMS, b.Variance)
	}
}

func TestIntegration_CrossDeviceDeployments(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes on two devices")
	}
	// The same model deploys on every simulated device; the embedded board
	// must be slower than the desktop card.
	latency := func(dev hwsim.Device) float64 {
		b := backend.Wrap(dev.Name, hwsim.NewSimulator(dev, 2))
		dep, err := core.OptimizeModel(context.Background(), "squeezenet-v1.1", tuner.RandomTuner{}, b, fastOpts(12, 3))
		if err != nil {
			t.Fatal(err)
		}
		return dep.LatencyMS
	}
	big := latency(hwsim.GTX1080Ti())
	small := latency(hwsim.JetsonTX2())
	if small <= big {
		t.Fatalf("Jetson latency %.3f should exceed 1080 Ti %.3f", small, big)
	}
}

func TestIntegration_AllTunersOnAllOpKinds(t *testing.T) {
	// Every tuner must handle every operator template.
	b := graph.NewBuilder("mixed")
	x := b.Input("in", 1, 8, 16, 16)
	x = b.Conv("c", x, 16, 3, 1, 1)
	x = b.DepthwiseConv("d", x, 3, 1, 1)
	x = b.Flatten("f", x)
	x = b.Dense("fc", x, 10)
	g := b.Finish(x)
	tuners := []tuner.Tuner{
		tuner.RandomTuner{}, tuner.GridTuner{}, tuner.GATuner{},
		tuner.NewAutoTVM(), tuner.NewBTED(), tuner.NewBTEDBAO(),
	}
	for _, tn := range tuners {
		bk := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 4))
		dep, err := core.OptimizeGraph(context.Background(), g, tn, bk, core.PipelineOptions{
			Tuning:  tuner.Options{Budget: 16, EarlyStop: -1, PlanSize: 8, Seed: 5},
			Extract: graph.AllOps,
			Runs:    50,
		})
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		if len(dep.Tasks) != 3 {
			t.Fatalf("%s: %d tasks", tn.Name(), len(dep.Tasks))
		}
	}
}
