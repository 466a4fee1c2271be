package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/job"
)

// Workload kinds: how jobs reach the program under test.
const (
	// kindTune runs each job in-process with job.Run, one after another
	// (the cmd/tune path): a closed loop with one client.
	kindTune = "tune"
	// kindOpen submits jobs to the daemon at scheduled arrival times,
	// whether or not earlier jobs have finished.
	kindOpen = "open"
	// kindClosed has two daemon clients, each submitting its next job only
	// after following the previous one's stream to the end.
	kindClosed = "closed"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	kind string
	why  string
}

// workloads lists every workload in the order -workload all runs them.
var workloads = []workload{
	{"tune-bao", kindTune, "the paper's BTED+BAO tuner: neighborhood sampling, bootstrap XGB training and allocation"},
	{"tune-sa", kindTune, "autotvm and BTED on five models: SA candidate selection, XGB training and TED; BAO never runs"},
	{"serve-unique", kindOpen, "open loop of distinct jobs at a paced rate: admission, store and checkpoint appends, job listing, cache misses"},
	{"serve-repeat", kindClosed, "closed loop over 8 Zipf-popular fixed-seed templates: shared-cache hits and live SSE reads"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want tune-bao, tune-sa, serve-unique, serve-repeat or all)", name)
}

// benchJob is one generated job: what the program under test receives.
type benchJob struct {
	ID string
	// Template names the spec shape the job was stamped from.
	Template string
	// Spec is normalized. Seed is set except on serve-unique, whose jobs
	// leave it 0 so the daemon derives it from the ID.
	Spec job.Spec
	// Due is when the job is meant to be submitted, relative to the start
	// of the measured phase (open loop only).
	Due time.Duration
}

// template is a weighted job shape.
type template struct {
	name   string
	spec   job.Spec
	weight float64
}

// Costs and rates the full scale is sized with, measured with unmodified
// code on a 2-CPU x86-64 host. They turn -seconds into a job count, so a
// run does a fixed amount of work for a given -seconds: a faster program
// finishes sooner instead of doing more.
const (
	baoRoundSeconds  = 7.0 // one tune-bao job
	saRoundSeconds   = 6.0 // one tune-sa job of each of its ten shapes
	uniqueRate       = 2.0 // serve-unique arrivals per second (about 45% of burst capacity)
	repeatJobsPerSec = 3.0 // serve-repeat closed-loop throughput
)

// serveTemplates are the three served job shapes: many cheap autotvm
// jobs, some BTED jobs whose initialization dominates, and
// measurement-only random search.
func serveTemplates(smoke bool) []template {
	a := job.Spec{Model: "mobilenet-v1", Tuner: "autotvm", Ops: "conv", Budget: 64, PlanSize: 16, EarlyStop: -1, Runs: 100}
	b := job.Spec{Model: "squeezenet-v1.1", Tuner: "bted", Ops: "conv", Budget: 48, PlanSize: 16, EarlyStop: -1, Runs: 100}
	c := job.Spec{Model: "squeezenet-v1.1", Tuner: "random", Ops: "conv", Budget: 256, PlanSize: 32, EarlyStop: -1, Runs: 100}
	if smoke {
		a.Budget, c.Budget = 32, 64
		b.Model, b.Budget = "alexnet", 16
	}
	return []template{
		{"mnet-autotvm", a.Normalized(), 2},
		{"sqz-bted", b.Normalized(), 1},
		{"sqz-random", c.Normalized(), 1},
	}
}

// generate builds a workload's jobs. It is a pure function of its
// arguments: the seed drives job IDs, job seeds, template order and
// arrival times, and nothing else reaches the program under test.
func generate(w workload, seed int64, seconds int, smoke bool) ([]benchJob, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds %d, want >= 1", seconds)
	}
	rng := rand.New(rand.NewSource(seed))
	prefix := fmt.Sprintf("%s-s%d", w.name, seed)
	var jobs []benchJob
	switch w.name {
	case "tune-bao":
		spec := job.Spec{Model: "mobilenet-v1", Tuner: "bted+bao", Ops: "conv", Budget: 48, PlanSize: 16, EarlyStop: -1, Runs: 100, TaskConcurrency: 1}
		n := jobCount(float64(seconds) / baoRoundSeconds)
		if smoke {
			spec.Budget, spec.PlanSize, spec.Runs, n = 12, 8, 20, 1
		}
		jobs = inRounds(n, []template{{name: "mnet-bao", spec: spec.Normalized()}})
	case "tune-sa":
		models := []string{"alexnet", "resnet-18", "vgg-16", "mobilenet-v1", "squeezenet-v1.1"}
		budget, plan, runs := 256, 64, 600
		n := jobCount(float64(seconds) / saRoundSeconds)
		if smoke {
			models = []string{"alexnet", "squeezenet-v1.1"}
			budget, plan, runs, n = 64, 32, 20, 1
		}
		var shapes []template
		for _, m := range models {
			for _, t := range []string{"autotvm", "bted"} {
				spec := job.Spec{Model: m, Tuner: t, Ops: "all", Budget: budget, PlanSize: plan, EarlyStop: -1, Runs: runs,
					TaskConcurrency: 2, BudgetPolicy: "adaptive"}
				shapes = append(shapes, template{name: m + "-" + t, spec: spec.Normalized()})
			}
		}
		jobs = inRounds(n, shapes)
	case "serve-unique":
		n := jobCount(uniqueRate * float64(seconds))
		window := time.Duration(seconds) * time.Second
		if smoke {
			n, window = 4, time.Second
		}
		jobs = stamp(serveTemplates(smoke), n, rng)
		// Paced arrivals: job i arrives at a uniformly random point of its
		// own slot [i, i+1) * window/n. The offered load is the same over
		// every stretch of the run, so the latency median measures the
		// daemon rather than where a Poisson draw happened to clump
		// arrivals; the gaps still vary from 0 to two slots.
		slot := window / time.Duration(n)
		for i := range jobs {
			jobs[i].Due = time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))
		}
	case "serve-repeat":
		n := jobCount(repeatJobsPerSec * float64(seconds))
		if smoke {
			n = 6
		}
		// Eight templates cycle through the three served shapes, each with
		// a seed fixed for the run, under Zipf(1) popularity: most jobs
		// repeat a (spec, seed) pair some earlier job already tuned.
		base := serveTemplates(smoke)
		tpls := make([]template, 8)
		for k := range tpls {
			b := base[k%len(base)]
			spec := b.spec
			spec.Seed = job.DeriveSeed(fmt.Sprintf("%s-t%d", prefix, k))
			tpls[k] = template{name: fmt.Sprintf("%s-t%d", b.name, k), spec: spec, weight: 1 / float64(k+1)}
		}
		jobs = stamp(tpls, n, rng)
	default:
		return nil, fmt.Errorf("no generator for workload %q", w.name)
	}
	for i := range jobs {
		jobs[i].ID = fmt.Sprintf("%s-%04d-%s", prefix, i, jobs[i].Template)
		if w.kind == kindTune {
			jobs[i].Spec.Seed = job.DeriveSeed(jobs[i].ID)
		}
		if err := jobs[i].Spec.Validate(); err != nil {
			return nil, fmt.Errorf("job %s: %w", jobs[i].ID, err)
		}
	}
	return jobs, nil
}

// inRounds lists every shape once per round, for n rounds. Repeating a
// shape once per round spreads its jobs over the run, so a burst of host
// noise slows at most one of them.
func inRounds(n int, shapes []template) []benchJob {
	var jobs []benchJob
	for r := 0; r < n; r++ {
		for _, s := range shapes {
			jobs = append(jobs, benchJob{Template: s.name, Spec: s.spec})
		}
	}
	return jobs
}

func jobCount(x float64) int {
	return max(1, int(math.Round(x)))
}

// stamp draws n jobs from the templates with each template's share fixed
// at its weight (largest-remainder rounding) and the order shuffled by
// rng. Fixing the shares keeps the offered work the same for every seed;
// the seed still decides which job comes when.
func stamp(tpls []template, n int, rng *rand.Rand) []benchJob {
	total := 0.0
	for _, t := range tpls {
		total += t.weight
	}
	counts := make([]int, len(tpls))
	rem := make([]float64, len(tpls))
	left := n
	for i, t := range tpls {
		exact := float64(n) * t.weight / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(tpls))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	jobs := make([]benchJob, 0, n)
	for i, t := range tpls {
		for k := 0; k < counts[i]; k++ {
			jobs = append(jobs, benchJob{Template: t.name, Spec: t.spec})
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}
