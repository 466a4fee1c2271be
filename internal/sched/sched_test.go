package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/tensor"
	"repro/internal/transfer"
	"repro/internal/tuner"
)

// schedTasks builds three conv tasks of different shapes and graph
// multiplicities, the minimal interesting scheduling problem.
func schedTasks(t *testing.T) []*tuner.Task {
	t.Helper()
	shapes := []tensor.Workload{
		tensor.Conv2D(1, 3, 32, 32, 16, 3, 1, 1),
		tensor.Conv2D(1, 16, 16, 16, 32, 3, 1, 1),
		tensor.Conv2D(1, 32, 8, 8, 64, 3, 1, 1),
	}
	tasks := make([]*tuner.Task, len(shapes))
	for i, w := range shapes {
		task, err := tuner.NewTask("sched.T"+string(rune('1'+i)), w)
		if err != nil {
			t.Fatal(err)
		}
		task.Count = i + 1
		tasks[i] = task
	}
	return tasks
}

func schedBackend(t *testing.T, seed int64) backend.Backend {
	t.Helper()
	b, err := backend.New("gtx1080ti", seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// specsFor derives per-task options the way core does (decorrelated seeds,
// shared transfer history).
func specsFor(tasks []*tuner.Task, budget int, seed int64, workers int, hist *transfer.History) []Spec {
	specs := make([]Spec, len(tasks))
	for i, task := range tasks {
		specs[i] = Spec{Task: task, Opts: tuner.Options{
			Budget: budget, EarlyStop: -1, PlanSize: 8,
			Seed: seed + int64(i)*1000003, Workers: workers, Transfer: hist,
		}}
	}
	return specs
}

func sameOutcomes(a, b []Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if a[i].Index != b[i].Index || ra.Found != rb.Found ||
			ra.Measurements != rb.Measurements ||
			math.Float64bits(ra.Best.GFLOPS) != math.Float64bits(rb.Best.GFLOPS) ||
			len(ra.Samples) != len(rb.Samples) {
			return false
		}
		for j := range ra.Samples {
			if ra.Samples[j].Config.Flat() != rb.Samples[j].Config.Flat() ||
				math.Float64bits(ra.Samples[j].GFLOPS) != math.Float64bits(rb.Samples[j].GFLOPS) ||
				ra.Samples[j].Valid != rb.Samples[j].Valid {
				return false
			}
		}
	}
	return true
}

// TestSequentialMatchesTuneChain: the sequential policy must behave exactly
// like hand-driving Tune task after task with live transfer chaining, each
// task opening only after the previous one finished.
func TestSequentialMatchesTuneChain(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.NewAutoTVM()

	hist := transfer.NewHistory()
	var want []Outcome
	for i, sp := range specsFor(tasks, 32, 5, 1, hist) {
		res, err := tuner.Tune(context.Background(), tn, sp.Task, schedBackend(t, 3), sp.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Outcome{Index: i, Task: sp.Task, Result: res})
	}

	var events []string
	got, err := Run(context.Background(), tn, schedBackend(t, 3),
		specsFor(tasks, 32, 5, 1, transfer.NewHistory()), Options{
			OnTaskStart: func(i, n int, name string) { events = append(events, "start "+name) },
			OnTaskDone:  func(o Outcome) { events = append(events, "done "+o.Task.Name) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcomes(want, got) {
		t.Fatal("sequential policy differs from the hand-driven Tune chain")
	}
	var order []string
	for _, task := range tasks {
		order = append(order, "start "+task.Name, "done "+task.Name)
	}
	if fmt.Sprint(events) != fmt.Sprint(order) {
		t.Fatalf("callback order %q, want %q", events, order)
	}
	for _, o := range got {
		if o.Rounds < 1 || o.Elapsed < 0 {
			t.Fatalf("outcome bookkeeping: rounds=%d elapsed=%v", o.Rounds, o.Elapsed)
		}
	}
}

// TestUniformGridInvariance is the scheduler's tentpole contract: with the
// uniform policy and transfer off, outcomes are bit-identical across every
// Workers x TaskConcurrency combination — including concurrency 1, which
// runs the sequential policy. autotvm adds the model-based path (SA over
// the compiled surrogate ensemble) to GA's model-free one.
func TestUniformGridInvariance(t *testing.T) {
	tasks := schedTasks(t)
	for _, tn := range []tuner.Tuner{tuner.GATuner{}, tuner.NewAutoTVM()} {
		var ref []Outcome
		for _, workers := range []int{1, 4, 8} {
			for _, conc := range []int{1, 2, 4} {
				outs, err := Run(context.Background(), tn, schedBackend(t, 7),
					specsFor(tasks, 40, 11, workers, nil), Options{TaskConcurrency: conc})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = outs
					continue
				}
				if !sameOutcomes(ref, outs) {
					t.Fatalf("%s: outcomes differ at workers=%d conc=%d", tn.Name(), workers, conc)
				}
			}
		}
		total := 0
		for _, o := range ref {
			total += o.Result.Measurements
		}
		if total != 3*40 {
			t.Fatalf("%s: total measurements %d, want %d", tn.Name(), total, 3*40)
		}
	}
}

// TestTransferRoundInvariance: with transfer on, the round-boundary
// snapshot history makes outcomes identical for every concurrency > 1 and
// worker count.
func TestTransferRoundInvariance(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.NewAutoTVM()
	var ref []Outcome
	for _, workers := range []int{1, 4} {
		for _, conc := range []int{2, 3, 4} {
			outs, err := Run(context.Background(), tn, schedBackend(t, 13),
				specsFor(tasks, 32, 17, workers, transfer.NewHistory()),
				Options{TaskConcurrency: conc})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = outs
				continue
			}
			if !sameOutcomes(ref, outs) {
				t.Fatalf("outcomes differ at workers=%d conc=%d", workers, conc)
			}
		}
	}
}

// TestAdaptiveInvariance: the adaptive policy runs as itself at every
// concurrency, so its outcomes too are invariant across the whole grid,
// transfer included.
func TestAdaptiveInvariance(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.RandomTuner{}
	var ref []Outcome
	for _, workers := range []int{1, 4} {
		for _, conc := range []int{1, 2, 4} {
			outs, err := Run(context.Background(), tn, schedBackend(t, 19),
				specsFor(tasks, 40, 23, workers, transfer.NewHistory()),
				Options{TaskConcurrency: conc, Policy: AdaptivePolicy{}})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = outs
				continue
			}
			if !sameOutcomes(ref, outs) {
				t.Fatalf("outcomes differ at workers=%d conc=%d", workers, conc)
			}
		}
	}
	// The graph-wide total is enforced up to one plan of overshoot per task.
	total := 0
	for _, o := range ref {
		total += o.Result.Measurements
		if o.Rounds < 1 {
			t.Fatalf("task %s ran %d rounds", o.Task.Name, o.Rounds)
		}
	}
	if total > 3*40+3*8 || total < 3*40-3*8 {
		t.Fatalf("adaptive total measurements %d far from budget %d", total, 3*40)
	}
}

// TestParentCancellation: a cancelled parent context aborts the run with an
// error under both the sequential and the concurrent schedule, like the
// legacy pipeline.
func TestParentCancellation(t *testing.T) {
	tasks := schedTasks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, conc := range []int{1, 2} {
		outs, err := Run(ctx, tuner.RandomTuner{}, schedBackend(t, 1),
			specsFor(tasks, 24, 3, 1, nil), Options{TaskConcurrency: conc})
		if err == nil {
			t.Fatalf("conc=%d: cancelled run should error", conc)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: error %v does not wrap context.Canceled", conc, err)
		}
		if len(outs) != 0 {
			t.Fatalf("conc=%d: %d outcomes from a run cancelled before start", conc, len(outs))
		}
	}
}

// TestTaskDeadlineFatal: a deadline so short that a task finds nothing is a
// fatal TaskError under both the sequential and the concurrent schedule.
func TestTaskDeadlineFatal(t *testing.T) {
	tasks := schedTasks(t)
	for _, conc := range []int{1, 2} {
		_, err := Run(context.Background(), tuner.RandomTuner{}, schedBackend(t, 1),
			specsFor(tasks, 24, 3, 1, nil),
			Options{TaskConcurrency: conc, TaskDeadline: time.Nanosecond})
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("conc=%d: error %v is not a TaskError", conc, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("conc=%d: error %v does not wrap DeadlineExceeded", conc, err)
		}
		if te.Error() == "" || te.TaskName == "" {
			t.Fatalf("conc=%d: TaskError not descriptive: %v", conc, te)
		}
	}
}

// TestRoundDriverCompletionEvents: OnTaskDone fires exactly once per task,
// in task-index order within boundaries, from a single goroutine.
func TestRoundDriverCompletionEvents(t *testing.T) {
	tasks := schedTasks(t)
	seen := map[string]int{}
	var order []int
	outs, err := Run(context.Background(), tuner.RandomTuner{}, schedBackend(t, 2),
		specsFor(tasks, 24, 9, 1, nil), Options{
			TaskConcurrency: 2,
			OnTaskDone: func(o Outcome) {
				seen[o.Task.Name]++
				order = append(order, o.Index)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(tasks) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(tasks))
	}
	for _, task := range tasks {
		if seen[task.Name] != 1 {
			t.Fatalf("task %s completed %d times", task.Name, seen[task.Name])
		}
	}
	// Same budget and plan for every task: all finish at the same boundary,
	// so events arrive strictly in index order.
	for i, idx := range order {
		if idx != i {
			t.Fatalf("completion order %v not index-ordered", order)
		}
	}
}

// TestBudgetSpentBeforeFirstGrant: when plans outsize the pooled budget, the
// adaptive policy's first round leaves the last task ungranted and the
// budget is gone at the next boundary. That task still opens and reports
// the empty-handed result its Tune call would, which is fatal.
func TestBudgetSpentBeforeFirstGrant(t *testing.T) {
	tasks := schedTasks(t)
	var started []int
	specs := specsFor(tasks, 4, 3, 1, nil)
	_, err := Run(context.Background(), tuner.RandomTuner{}, schedBackend(t, 1), specs, Options{
		TaskConcurrency: 3, Policy: AdaptivePolicy{},
		OnTaskStart: func(i, n int, name string) { started = append(started, i) },
	})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 2 || !errors.Is(err, tuner.ErrNoValidConfig) {
		t.Fatalf("error %v, want a no-valid-config TaskError for task 2", err)
	}
	if fmt.Sprint(started) != "[1 2 3]" {
		t.Fatalf("tasks started %v, want [1 2 3]", started)
	}
}

// TestEmptyAndDefaults covers the trivial paths.
func TestEmptyAndDefaults(t *testing.T) {
	outs, err := Run(context.Background(), tuner.RandomTuner{}, schedBackend(t, 1), nil, Options{})
	if err != nil || outs != nil {
		t.Fatalf("empty run: %v %v", outs, err)
	}
}
