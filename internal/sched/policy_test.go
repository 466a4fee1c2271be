package sched

import (
	"testing"

	"repro/internal/tuner"
)

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"": "uniform", "uniform": "uniform", "adaptive": "adaptive"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestSequentialAllocate(t *testing.T) {
	p := sequentialPolicy{}
	if got := p.SessionBudget(64, 1000); got != 64 {
		t.Fatalf("SessionBudget = %d, want 64", got)
	}
	states := []TaskState{
		{Index: 0, PlanSize: 8, Done: true},
		{Index: 1, PlanSize: 16},
		{Index: 2, PlanSize: 4},
	}
	if got := p.Allocate(0, states); got[0] != 0 || got[1] != 16 || got[2] != 0 {
		t.Fatalf("Allocate = %v, want only the lowest live task", got)
	}
	if r, _ := resolve(Options{TaskConcurrency: 1}, 3); r.Name() != "sequential" {
		t.Fatalf("tc=1 uniform resolves to %s", r.Name())
	}
	if r, _ := resolve(Options{TaskConcurrency: 2}, 3); r.Name() != "uniform" {
		t.Fatalf("tc=2 uniform resolves to %s", r.Name())
	}
}

func TestUniformAllocate(t *testing.T) {
	p := UniformPolicy{}
	if got := p.SessionBudget(64, 1000); got != 64 {
		t.Fatalf("SessionBudget = %d, want 64", got)
	}
	states := []TaskState{
		{Index: 0, PlanSize: 8},
		{Index: 1, PlanSize: 16, Done: true},
		{Index: 2, PlanSize: 4},
	}
	got := p.Allocate(0, states)
	if got[0] != 8 || got[1] != 0 || got[2] != 4 {
		t.Fatalf("Allocate = %v", got)
	}
}

func TestAdaptiveAllocate(t *testing.T) {
	p := AdaptivePolicy{}
	if got := p.SessionBudget(64, 1000); got != 1000 {
		t.Fatalf("SessionBudget = %d, want total", got)
	}

	// No gains anywhere: equal split of the uniform quantum.
	flat := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1},
		{Index: 1, PlanSize: 8, Weight: 1},
	}
	got := p.Allocate(0, flat)
	if got[0] != 8 || got[1] != 8 {
		t.Fatalf("equal fallback: %v", got)
	}

	// Task 1 improved, task 0 plateaued: the quantum shifts toward task 1,
	// but task 0 keeps its floor of one.
	gain := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 100, PrevBest: 100},
		{Index: 1, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 120, PrevBest: 100},
	}
	got = p.Allocate(3, gain)
	if got[0] != 1 || got[1] != 15 {
		t.Fatalf("gain shift: %v (want [1 15])", got)
	}
	if got[0]+got[1] != 16 {
		t.Fatalf("quantum not conserved: %v", got)
	}

	// Equal gains, unequal weights: the heavier task gets the larger share;
	// the largest-remainder tie goes to the lower index.
	weighted := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 110, PrevBest: 100},
		{Index: 1, PlanSize: 8, Weight: 3, Measured: 16, PrevMeasured: 8, Best: 110, PrevBest: 100},
	}
	got = p.Allocate(5, weighted)
	if got[0]+got[1] != 16 || got[1] <= got[0] {
		t.Fatalf("weighted shift: %v", got)
	}

	// Done tasks get nothing and contribute no quantum.
	done := []TaskState{
		{Index: 0, PlanSize: 8, Done: true},
		{Index: 1, PlanSize: 8, Weight: 1},
	}
	got = p.Allocate(7, done)
	if got[0] != 0 || got[1] != 8 {
		t.Fatalf("done handling: %v", got)
	}
	if out := p.Allocate(8, []TaskState{{Index: 0, Done: true}}); out[0] != 0 {
		t.Fatalf("all-done: %v", out)
	}
}

func specsForPreview(t *testing.T, budget, plan int) []Spec {
	t.Helper()
	tasks := schedTasks(t)
	specs := make([]Spec, len(tasks))
	for i, task := range tasks {
		specs[i] = Spec{Task: task, Opts: tuner.Options{Budget: budget, PlanSize: plan, EarlyStop: -1}}
	}
	return specs
}

func TestPlanPreviewUniform(t *testing.T) {
	specs := specsForPreview(t, 24, 8)
	plans := PlanPreview(specs, Options{TaskConcurrency: 2})
	if len(plans) != 3 {
		t.Fatalf("%d rounds, want 3 (24/8)", len(plans))
	}
	cum := map[int]int{}
	for r, plan := range plans {
		if plan.Round != r {
			t.Fatalf("round numbering: %+v", plan)
		}
		for _, g := range plan.Grants {
			if g.Grant != 8 {
				t.Fatalf("uniform grant %d, want 8", g.Grant)
			}
			cum[g.Index] += g.Grant
			if g.Cumulative != cum[g.Index] {
				t.Fatalf("cumulative mismatch: %+v", g)
			}
		}
	}
	for i := range specs {
		if cum[i] != 24 {
			t.Fatalf("task %d planned %d, want 24", i, cum[i])
		}
	}
}

// TestPlanPreviewSequential: at TaskConcurrency 1 the preview shows the
// sequential policy the scheduler runs — one task per round, each run to its
// budget before the next starts.
func TestPlanPreviewSequential(t *testing.T) {
	specs := specsForPreview(t, 24, 8)
	plans := PlanPreview(specs, Options{TaskConcurrency: 1})
	if len(plans) != 9 {
		t.Fatalf("%d rounds, want 9 (3 tasks x 24/8)", len(plans))
	}
	for r, plan := range plans {
		if len(plan.Grants) != 1 {
			t.Fatalf("round %d grants %d tasks, want 1", r, len(plan.Grants))
		}
		g := plan.Grants[0]
		if want := r / 3; g.Index != want || g.Grant != 8 || g.Cumulative != 8*(r%3+1) {
			t.Fatalf("round %d: %+v, want task %d", r, g, want)
		}
	}
}

func TestPlanPreviewAdaptive(t *testing.T) {
	specs := specsForPreview(t, 24, 8)
	plans := PlanPreview(specs, Options{Policy: AdaptivePolicy{}})
	if len(plans) == 0 {
		t.Fatal("no rounds planned")
	}
	total := 0
	for _, plan := range plans {
		for _, g := range plan.Grants {
			total += g.Grant
		}
	}
	if total != 3*24 {
		t.Fatalf("planned total %d, want %d", total, 3*24)
	}
	if PlanPreview(nil, Options{}) != nil {
		t.Fatal("empty preview should be nil")
	}
}
