package tuner

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// countingStub is a thread-safe stub backend whose measurements are all
// valid and identical; only the call count matters.
type countingStub struct {
	mu sync.Mutex
	n  int
}

func (m *countingStub) Name() string { return "stub" }

func (m *countingStub) Seeded() bool { return true }

func (m *countingStub) Measure(tensor.Workload, space.Config) hwsim.Measurement {
	m.mu.Lock()
	m.n++
	m.mu.Unlock()
	return hwsim.Measurement{Valid: true, TimeMS: 1, GFLOPS: 1}
}

func (m *countingStub) MeasureSeeded(w tensor.Workload, c space.Config, _ int64) hwsim.Measurement {
	return m.Measure(w, c)
}

func (m *countingStub) NetworkLatency([]hwsim.Deployment, int) (float64, float64, error) {
	return 1, 0, nil
}

func (m *countingStub) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// flaky wraps a backend and drops a fraction of measurements, as real
// measurement farms do (board resets, driver timeouts, contention); tuners
// must absorb them as invalid results and keep searching. The failure coin
// derives from the per-call noise seed — remixed so it is decorrelated
// from the noise draw that shares the seed downstream — so injection does
// not depend on call order or worker count.
type flaky struct {
	backend.Backend
	failProb float64
	fails    atomic.Int64
}

func newFlaky(inner backend.Backend, failProb float64) *flaky {
	return &flaky{Backend: inner, failProb: failProb}
}

func (f *flaky) MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) hwsim.Measurement {
	if rand.New(rand.NewSource(noiseSeed^0x5DEECE66D)).Float64() < f.failProb {
		f.fails.Add(1)
		return hwsim.Measurement{Valid: false, Error: "injected measurement failure"}
	}
	return f.Backend.MeasureSeeded(w, c, noiseSeed)
}

// failures returns how many measurements were dropped.
func (f *flaky) failures() int { return int(f.fails.Load()) }

// TestMeasurementPoolConcurrent runs the real tuners with a wide worker
// pool against the simulator. Under -race this validates the whole seeded
// batch path: plan-time visited marking, pooled MeasureSeeded calls and the
// ordered fold-back into session state.
func TestMeasurementPoolConcurrent(t *testing.T) {
	task := testTask(t)
	for _, tn := range allTuners() {
		opts := quickOpts(64, 37)
		opts.Workers = 8
		res := mustTune(t, tn, task, sim(9), opts)
		if res.Measurements == 0 || len(res.Samples) != res.Measurements {
			t.Fatalf("%s: inconsistent result under workers=8: %d measurements, %d samples",
				tn.Name(), res.Measurements, len(res.Samples))
		}
	}
}

// TestMeasurementPoolConcurrentFlaky layers failure injection on top of the
// pool so the flaky seeded path also runs under -race.
func TestMeasurementPoolConcurrentFlaky(t *testing.T) {
	task := testTask(t)
	opts := quickOpts(64, 41)
	opts.Workers = 8
	flaky := newFlaky(sim(10), 0.2)
	res := mustTune(t, NewAutoTVM(), task, flaky, opts)
	if res.Measurements == 0 {
		t.Fatal("no measurements under flaky pool")
	}
	invalid := 0
	for _, s := range res.Samples {
		if !s.Valid {
			invalid++
		}
	}
	if invalid < flaky.failures() {
		t.Fatalf("recorded %d invalid samples but injected %d failures", invalid, flaky.failures())
	}
}

// TestFlakyBackendConcurrent drives one flaky injector from many
// goroutines. Under -race this validates its failure counter; in any mode
// injected failures plus forwarded measurements must account for every
// call exactly once, and each call's fate must be the one a serial sweep
// over the same seeds decides.
func TestFlakyBackendConcurrent(t *testing.T) {
	const workers, perWorker = 8, 100
	total := workers * perWorker
	serial := newFlaky(&countingStub{}, 0.3)
	want := make([]bool, total)
	for i := range want {
		want[i] = serial.MeasureSeeded(tensor.Workload{}, space.Config{}, int64(i)).Valid
	}

	inner := &countingStub{}
	fl := newFlaky(inner, 0.3)
	var wg sync.WaitGroup
	invalid := make([]int, workers)
	diverged := make([]bool, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += workers {
				valid := fl.MeasureSeeded(tensor.Workload{}, space.Config{}, int64(i)).Valid
				if !valid {
					invalid[g]++
				}
				if valid != want[i] {
					diverged[g] = true
				}
			}
		}(g)
	}
	wg.Wait()

	dropped := 0
	for g, n := range invalid {
		dropped += n
		if diverged[g] {
			t.Fatalf("worker %d: injected failures depend on call order", g)
		}
	}
	if fl.failures() != dropped || serial.failures() != dropped {
		t.Fatalf("failures() = %d (serial %d) but callers saw %d invalid results", fl.failures(), serial.failures(), dropped)
	}
	if inner.count()+dropped != total {
		t.Fatalf("forwarded %d + dropped %d != total %d (a call was lost or double-counted)", inner.count(), dropped, total)
	}
	if dropped == 0 || dropped == total {
		t.Fatalf("dropped %d of %d; failure injection should be partial at p=0.3", dropped, total)
	}
}
