// Package backend defines the measurement environment of a tuning session
// as a composable interface layer. A Backend is what a tuner deploys
// configurations to: the base implementation adapts *hwsim.Simulator under
// a registry of named devices, and WithShared layers a deterministic
// cross-run measurement memo (SharedCache) on top without the tuners
// knowing which stack they talk to. Raw-call accounting is the
// simulator's own (Sim.Simulator().MeasureCount()).
package backend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// Backend is the deployment environment a tuning session measures against.
//
// MeasureSeeded is the contract of the deterministic parallel measurement
// engine: it must return a result that depends only on (workload, config,
// noiseSeed) — never on call order or the calling goroutine — and must be
// safe for concurrent use. The tuning stack measures only through
// MeasureSeeded and refuses a backend whose Seeded reports false (a tuner
// session fails to open). Measure, the shared-stream call, has no caller
// in the tuning stack or the examples; it stays in the interface only
// because the benchmark harness's timing wrapper forwards it.
type Backend interface {
	// Name identifies the backend stack, e.g. "gtx1080ti" or
	// "cache(gtx1080ti)".
	Name() string
	// Seeded reports whether MeasureSeeded is order-independent and
	// concurrency-safe; tuning requires it.
	Seeded() bool
	// Measure deploys (workload, config) once, drawing run-to-run noise
	// from the backend's shared stream.
	Measure(w tensor.Workload, c space.Config) hwsim.Measurement
	// MeasureSeeded deploys (workload, config) once with the noise draw
	// derived from the explicit per-call seed.
	MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) hwsim.Measurement
	// NetworkLatency simulates runs end-to-end inferences of a deployed
	// model (the Table I metric); wrappers forward it to the base backend.
	NetworkLatency(deps []hwsim.Deployment, runs int) (meanMS, variance float64, err error)
}

// Sim adapts *hwsim.Simulator to Backend under a device name. It is the
// base of every backend stack in this repository.
type Sim struct {
	device string
	sim    *hwsim.Simulator
}

// New builds a simulator backend for a registered device name (see
// Devices) with a deterministic measurement-noise stream.
func New(device string, seed int64) (*Sim, error) {
	dev, ok := hwsim.DeviceByName(device)
	if !ok {
		return nil, fmt.Errorf("backend: unknown device %q (have: %s)", device, strings.Join(Devices(), ", "))
	}
	return &Sim{device: device, sim: hwsim.NewSimulator(dev, seed)}, nil
}

// Wrap adapts an existing simulator under the given name, for callers that
// build the simulator themselves: the paper studies construct one per trial
// from a device they already hold, and tests keep direct simulator access.
func Wrap(name string, sim *hwsim.Simulator) *Sim {
	return &Sim{device: name, sim: sim}
}

// Devices lists the registered device names in sorted order.
func Devices() []string {
	m := hwsim.Devices()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name) //lint:ignore maprange sorted on the next line
	}
	sort.Strings(out)
	return out
}

// Name implements Backend.
func (s *Sim) Name() string { return s.device }

// Seeded implements Backend: the simulator's MeasureSeeded is pure in
// (workload, config, seed).
func (s *Sim) Seeded() bool { return true }

// Simulator exposes the underlying simulator (measurement counts, the
// deterministic estimator for breakdowns).
func (s *Sim) Simulator() *hwsim.Simulator { return s.sim }

// Measure implements Backend.
func (s *Sim) Measure(w tensor.Workload, c space.Config) hwsim.Measurement {
	return s.sim.Measure(w, c)
}

// MeasureSeeded implements Backend.
func (s *Sim) MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) hwsim.Measurement {
	return s.sim.MeasureSeeded(w, c, noiseSeed)
}

// NetworkLatency implements Backend.
func (s *Sim) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	return s.sim.NetworkLatency(deps, runs)
}
