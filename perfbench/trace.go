package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the span that caused this one (0: none).
type span struct {
	ID     int64  `json:"span"`
	Parent int64  `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit, so
// recording one costs a clock read and an append. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int64, jobID, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: jobID, Name: name, Start: t.ns(start), End: t.ns(end)})
	return id
}

// finish sets the end of a span added before its end was known.
func (t *tracer) finish(id int64, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ns(end)
}

// layerStat is what the spans of one name add up to.
type layerStat struct {
	count  int
	busyMS float64 // summed durations; concurrent spans both count
}

// byName folds the spans into per-name counts and busy time.
func (t *tracer) byName() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.count++
		st.busyMS += float64(s.End-s.Start) / 1e6
		out[s.Name] = st
	}
	return out
}

// busy sums the durations of one job's spans of one name, in ms.
func (t *tracer) busy(jobID, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := 0.0
	for _, s := range t.spans {
		if s.Job == jobID && s.Name == name {
			ms += float64(s.End-s.Start) / 1e6
		}
	}
	return ms
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedBackend times every call into a backend. It forwards Name and
// Seeded, so the tuners see the same backend they would without it.
type timedBackend struct {
	inner  backend.Backend
	tr     *tracer
	parent int64
	job    string
}

func (b *timedBackend) Name() string { return b.inner.Name() }
func (b *timedBackend) Seeded() bool { return b.inner.Seeded() }

func (b *timedBackend) Measure(w tensor.Workload, c space.Config) hwsim.Measurement {
	t0 := time.Now()
	m := b.inner.Measure(w, c)
	b.tr.add(b.parent, b.job, "backend.measure", t0, time.Now())
	return m
}

func (b *timedBackend) MeasureSeeded(w tensor.Workload, c space.Config, seed int64) hwsim.Measurement {
	t0 := time.Now()
	m := b.inner.MeasureSeeded(w, c, seed)
	b.tr.add(b.parent, b.job, "backend.measure", t0, time.Now())
	return m
}

func (b *timedBackend) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	t0 := time.Now()
	mean, v, err := b.inner.NetworkLatency(deps, runs)
	b.tr.add(b.parent, b.job, "backend.netlat", t0, time.Now())
	return mean, v, err
}

// timedTrainer times BAO's bootstrap model training. It returns the inner
// Evaluator unwrapped, so scoring runs exactly as without it.
type timedTrainer struct {
	inner  active.EvalTrainer
	tr     *tracer
	parent int64
	job    string
}

func (t timedTrainer) Train(X [][]float64, y []float64, seed int64) (active.Evaluator, error) {
	t0 := time.Now()
	ev, err := t.inner.Train(X, y, seed)
	t.tr.add(t.parent, t.job, "active.bootstrap_train", t0, time.Now())
	return ev, err
}

// memDelta is the Go runtime's allocation and GC work between two reads.
type memDelta struct {
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
}

func (d *memDelta) add(o memDelta) {
	d.allocMB += o.allocMB
	d.gcCycles += o.gcCycles
	d.gcPauseMS += o.gcPauseMS
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
