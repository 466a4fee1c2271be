package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: setup_s
// re-executes os.Executable() with --setup-only, which inside a test is
// this binary.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram declares %v", layers, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke scale, untraced and
// traced, and checks the result line: correct, every declared metric
// present with its unit, and the same record streams in both modes (the
// committed golden hashes cover the smoke scale at seed 1).
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tuner and the daemon")
	}
	t.Setenv("PERFBENCH_AS_MAIN", "1")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			hashes := map[int]string{}
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "1", "--scale", "smoke",
					"--trace", []string{"0", "1"}[trace], "--workdir", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("trace %d: exit %d\n%s", trace, code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %d: last line is not a result: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
					}
				}
				for _, l := range lines {
					if h, ok := strings.CutPrefix(l, "# stream_hash "); ok {
						hashes[trace] = h
					}
				}
			}
			if hashes[0] == "" || hashes[0] != hashes[1] {
				t.Errorf("stream hashes differ between untraced and traced runs: %q vs %q", hashes[0], hashes[1])
			}
		})
	}
}

func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		for _, smoke := range []bool{false, true} {
			a, err := generate(w, 7, 20, smoke)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := generate(w, 7, 20, smoke)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s smoke=%v: same seed generated different jobs", w.name, smoke)
			}
			c, _ := generate(w, 8, 20, smoke)
			if len(c) != len(a) {
				t.Errorf("%s smoke=%v: job count depends on the seed (%d vs %d)", w.name, smoke, len(a), len(c))
			}
			for i := range a {
				if a[i].ID == c[i].ID {
					t.Errorf("%s smoke=%v: job %d has ID %s under both seeds", w.name, smoke, i, a[i].ID)
				}
				if a[i].Spec.Seed != 0 && a[i].Spec.Seed == c[i].Spec.Seed {
					t.Errorf("%s smoke=%v: job %d has seed %d under both seeds", w.name, smoke, i, a[i].Spec.Seed)
				}
			}
			if w.kind == kindOpen && reflect.DeepEqual(dues(a), dues(c)) {
				t.Errorf("%s smoke=%v: arrival times do not depend on the seed", w.name, smoke)
			}
		}
	}
}

func dues(jobs []benchJob) []int64 {
	out := make([]int64, len(jobs))
	for i, j := range jobs {
		out[i] = int64(j.Due)
	}
	return out
}

func TestStampKeepsTemplateShares(t *testing.T) {
	w, err := workloadByName("serve-unique")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := generate(w, 3, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, j := range jobs {
		count[j.Template]++
	}
	want := map[string]int{"mnet-autotvm": 20, "sqz-bted": 10, "sqz-random": 10}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("serve-unique template counts %v, want %v", count, want)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Due < jobs[i-1].Due {
			t.Fatalf("arrivals out of order at job %d", i)
		}
	}
}
