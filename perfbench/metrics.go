package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one reported metric. The lists below are the ones
// BENCHMARK.json names; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the tuner or the daemon sees. Every workload
// reports every one, untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"tune_wall_s", "s", "lower"},
	{"job_latency_p50_s", "s", "lower"},
	{"deploy_latency_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer comes from the traced pass. A layer a workload does not reach
// reports 0.
var perLayer = []metricDef{
	{"backend.measure_calls", "count", "lower"},
	{"backend.measure_busy_ms", "ms", "lower"},
	{"backend.netlat_busy_ms", "ms", "lower"},
	{"backend.cache_hit_frac", "fraction", "higher"},
	{"backend.cache_misses", "count", "lower"},
	{"backend.cache_evictions", "count", "lower"},
	{"tuner.init_set_ms", "ms", "lower"},
	{"tuner.surrogate_train_ms", "ms", "lower"},
	{"tuner.candidate_selection_ms", "ms", "lower"},
	{"tuner.measurement_ms", "ms", "lower"},
	{"tuner.valid_frac", "fraction", "higher"},
	{"active.bootstrap_train_calls", "count", "lower"},
	{"active.bootstrap_train_cpu_ms", "ms", "lower"},
	{"sched.unattributed_ms", "ms", "lower"},
	{"record.lines", "count", "lower"},
	{"record.bytes", "B", "lower"},
	{"record.append_busy_ms", "ms", "lower"},
	{"job.queue_wait_p50_s", "s", "lower"},
	{"job.queue_depth_max", "count", "lower"},
	{"job.run_p50_s", "s", "lower"},
	{"job.store_mb", "MB", "lower"},
	{"job.snap_mb", "MB", "lower"},
	{"serve.submit_p50_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.list_p50_ms", "ms", "lower"},
	{"serve.ttfr_p50_ms", "ms", "lower"},
	{"serve.sse_events", "count", "lower"},
	{"serve.sse_mb", "MB", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"bench.generator_late_p50_ms", "ms", "lower"},
	{"bench.generator_late_max_ms", "ms", "lower"},
	{"bench.trace_overhead_frac", "fraction", "lower"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's outcome. Every job run and every output
// comparison is one attempt; a failed job, a refused submission or a
// mismatching output is one failure.
type report struct {
	attempted int
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one attempt and records a failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// write prints each declared metric as "name value unit", then the result
// line. A declared metric the run did not set is a bug in the benchmark.
func (r *report) write(w io.Writer, defs []metricDef) error {
	line := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    len(r.problems),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%s %.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
