package sched

// PlannedGrant is one task's share of a previewed round.
type PlannedGrant struct {
	// Index / Name identify the task.
	Index int
	Name  string
	// Grant is the measurements granted this round; Cumulative the planned
	// total after the round.
	Grant      int
	Cumulative int
}

// RoundPlan is one previewed scheduler round.
type RoundPlan struct {
	Round int
	// Grants lists the tasks granted work this round, in task-index order.
	Grants []PlannedGrant
}

// PlanPreview simulates the round/budget schedule the scheduler would run
// for the specs under opts — without opening sessions or measuring anything
// (cmd/tune -dry-run). It resolves the policy the way Run does (so
// TaskConcurrency 1 with the uniform policy previews the sequential policy,
// one task per round in spec order) and caps grants with the same code, with
// two stated idealizations: sessions are assumed to hit their per-round
// goals exactly (a real batch may overshoot by a partial plan), and early
// stopping is unpredictable and ignored. Because no measurements exist,
// marginal gains are all zero, so the adaptive policy follows its
// equal-weight fallback — the schedule it runs until real gains
// differentiate the tasks.
func PlanPreview(specs []Spec, opts Options) []RoundPlan {
	if len(specs) == 0 {
		return nil
	}
	policy, _ := resolve(opts, len(specs))
	runs, totalBudget := newTaskRuns(specs, policy)
	states := make([]TaskState, len(runs))
	for i, tr := range runs {
		states[i] = TaskState{Index: i, Name: tr.spec.Task.Name,
			Budget: tr.ownBudget, PlanSize: tr.planSize, Weight: tr.spec.Task.Count}
	}
	var plans []RoundPlan
	for round := 0; ; round++ {
		totalMeasured := 0
		for _, st := range states {
			totalMeasured += st.Measured
		}
		live := 0
		for i := range states {
			st := &states[i]
			st.Done = st.Done || st.Measured >= runs[i].sessBudget || totalMeasured >= totalBudget
			if !st.Done {
				live++
			}
		}
		if live == 0 {
			return plans
		}
		grants := capGrants(policy.Allocate(round, states), states, runs, totalBudget-totalMeasured)
		plan := RoundPlan{Round: round}
		for i, g := range grants {
			st := &states[i]
			st.PrevMeasured = st.Measured
			if g == 0 {
				continue
			}
			st.Measured += g
			plan.Grants = append(plan.Grants, PlannedGrant{
				Index: i, Name: st.Name, Grant: g, Cumulative: st.Measured})
		}
		plans = append(plans, plan)
	}
}
