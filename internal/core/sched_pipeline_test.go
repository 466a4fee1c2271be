package core

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tuner"
)

// goldenPipelineHash is the FNV-1a digest of the full goldentiny deployment
// (per-task deployed config + sample stream, then latency and variance)
// captured from the pre-refactor sequential pipeline. The scheduler-backed
// pipeline must keep reproducing it bit-for-bit at TaskConcurrency 1 with
// the uniform policy.
const (
	goldenPipelineHash = uint64(0x03394bcca7e4d0c2)
	goldenPipelineMeas = 120
)

// goldenGraph is the goldentiny capture graph (same topology as tinyGraph,
// pinned here under its capture name so the golden settings are self-contained).
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder("goldentiny")
	x := b.Input("data", 1, 3, 32, 32)
	x = b.ReLU("relu1", b.Conv("conv1", x, 16, 3, 1, 1))
	x = b.ReLU("relu2", b.DepthwiseConv("dw", x, 3, 1, 1))
	x = b.MaxPool("pool", x, 2, 2, 0, false)
	x = b.Flatten("flat", x)
	x = b.Dense("fc", x, 10)
	return b.Finish(b.Softmax("prob", x))
}

func goldenPipelineOpts() PipelineOptions {
	return PipelineOptions{
		Tuning:      tuner.Options{Budget: 40, EarlyStop: -1, PlanSize: 8, Seed: 31, Workers: 1},
		Extract:     graph.AllOps,
		UseTransfer: true,
		Runs:        100,
	}
}

// deploymentHash digests everything observable about a deployment: each
// task's deployed configuration and the FNV digest of its full sample
// stream, then the latency statistics. The nesting (a digest of per-task
// stream digests) matches the pre-refactor capture that produced
// goldenPipelineHash.
func deploymentHash(dep *Deployment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, t := range dep.Tasks {
		put(t.Deployed.Flat())
		put(resultStreamHash(t.Result))
	}
	put(math.Float64bits(dep.LatencyMS))
	put(math.Float64bits(dep.Variance))
	return h.Sum64()
}

// resultStreamHash is the FNV-1a digest of one task's sample stream
// (config, GFLOPS bits, validity — in measurement order).
func resultStreamHash(res tuner.Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, s := range res.Samples {
		put(s.Config.Flat())
		put(math.Float64bits(s.GFLOPS))
		if s.Valid {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// TestPipelineGolden pins the pre-refactor pipeline output: the scheduler
// path at concurrency 1 + uniform policy (the scheduler's sequential policy)
// is the legacy sequential pipeline.
func TestPipelineGolden(t *testing.T) {
	dep, err := OptimizeGraph(context.Background(), goldenGraph(), tuner.NewAutoTVM(),
		testBackend(t, 77), goldenPipelineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if dep.TotalMeasurements != goldenPipelineMeas {
		t.Fatalf("measurements = %d, want %d", dep.TotalMeasurements, goldenPipelineMeas)
	}
	if got := deploymentHash(dep); got != goldenPipelineHash {
		t.Fatalf("deployment hash %#016x, want golden %#016x", got, goldenPipelineHash)
	}
}

// TestPipelineConcurrencyInvariance: with concurrent rounds engaged
// (TaskConcurrency > 1), the deployment is identical for every concurrency
// value — transfer snapshots at round boundaries make the interleaving
// invisible.
func TestPipelineConcurrencyInvariance(t *testing.T) {
	var ref *Deployment
	var refHash uint64
	for _, conc := range []int{2, 3, 4} {
		opts := goldenPipelineOpts()
		opts.TaskConcurrency = conc
		dep, err := OptimizeGraph(context.Background(), goldenGraph(), tuner.NewAutoTVM(),
			testBackend(t, 77), opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refHash = dep, deploymentHash(dep)
			continue
		}
		if got := deploymentHash(dep); got != refHash {
			t.Fatalf("conc=%d: deployment hash %#016x differs from conc=2's %#016x", conc, got, refHash)
		}
	}
	if ref.TotalMeasurements != goldenPipelineMeas {
		t.Fatalf("concurrent-round measurements = %d, want %d", ref.TotalMeasurements, goldenPipelineMeas)
	}
}

// TestPipelineAdaptiveInvariance: the adaptive policy runs as itself at every
// concurrency (only the uniform policy turns sequential at 1), so its
// deployments are identical across the whole concurrency range including 1.
func TestPipelineAdaptiveInvariance(t *testing.T) {
	var refHash uint64
	first := true
	for _, conc := range []int{1, 2, 4} {
		opts := goldenPipelineOpts()
		opts.TaskConcurrency = conc
		opts.BudgetPolicy = "adaptive"
		dep, err := OptimizeGraph(context.Background(), goldenGraph(), tuner.NewAutoTVM(),
			testBackend(t, 77), opts)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			refHash, first = deploymentHash(dep), false
			continue
		}
		if got := deploymentHash(dep); got != refHash {
			t.Fatalf("conc=%d: adaptive deployment hash %#016x differs from %#016x", conc, got, refHash)
		}
	}
}

// TestPipelineBadPolicy: an unknown budget policy is rejected before any
// tuning starts.
func TestPipelineBadPolicy(t *testing.T) {
	opts := quickPipelineOpts(10)
	opts.BudgetPolicy = "nope"
	if _, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.RandomTuner{}, testBackend(t, 1), opts); err == nil {
		t.Fatal("unknown policy should error")
	}
}

// TestTaskEventDelivery: OnTaskDone fires once per task with a coherent
// event, at every concurrency level.
func TestTaskEventDelivery(t *testing.T) {
	for _, conc := range []int{1, 2} {
		opts := quickPipelineOpts(16)
		opts.TaskConcurrency = conc
		var events []TaskEvent
		opts.OnTaskDone = func(e TaskEvent) { events = append(events, e) }
		dep, err := OptimizeGraph(context.Background(), tinyGraph(), tuner.RandomTuner{}, testBackend(t, 8), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(dep.Tasks) {
			t.Fatalf("conc=%d: %d events for %d tasks", conc, len(events), len(dep.Tasks))
		}
		seen := map[string]bool{}
		for _, e := range events {
			if e.Total != len(dep.Tasks) || e.Index < 1 || e.Index > e.Total {
				t.Fatalf("conc=%d: bad event indices: %+v", conc, e)
			}
			if e.Name == "" || seen[e.Name] {
				t.Fatalf("conc=%d: duplicate or unnamed event %q", conc, e.Name)
			}
			seen[e.Name] = true
			if e.Measurements != e.Result.Measurements || e.Measurements == 0 {
				t.Fatalf("conc=%d: measurement accounting: %+v", conc, e)
			}
			if e.Elapsed < 0 {
				t.Fatalf("conc=%d: negative elapsed", conc)
			}
			if e.Err != nil {
				t.Fatalf("conc=%d: unexpected task error: %v", conc, e.Err)
			}
			if e.Deployed.Flat() != dep.Tasks[e.Index-1].Deployed.Flat() {
				t.Fatalf("conc=%d: event deployed config differs from deployment", conc)
			}
		}
	}
}
