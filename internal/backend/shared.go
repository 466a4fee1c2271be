package backend

import (
	"sync"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// cacheKey identifies one seeded measurement. The device name is part of
// the key so a memo shared across backends can never serve a measurement
// from the wrong device.
type cacheKey struct {
	device   string
	workload string
	flat     uint64
	seed     int64
}

// DefaultSharedCacheCapacity bounds the fleet-wide measurement memo. One
// entry is a cacheKey plus a Measurement (~100 bytes), so the default caps
// the cache near 100 MB — large enough to hold every measurement of a
// multi-job fleet over a handful of (model, device) pairs, small enough
// that a long-lived daemon cannot grow without bound.
const DefaultSharedCacheCapacity = 1 << 20

// SharedCache is the cross-job measurement memo of a serving fleet: one
// bounded, concurrency-safe table of seeded measurements shared by every
// backend stack the daemon builds. Because MeasureSeeded is pure in
// (device, workload, config, noiseSeed) — the device name keys a fixed
// registry parameterization, and the noise draw comes only from the
// explicit seed — a hit is bit-identical to re-simulating, no matter which
// job, session, or daemon life populated the entry. The cache therefore
// changes how many raw simulator calls a fleet issues, never what any
// single job observes: two identical (spec, seed) jobs produce
// byte-identical record streams whether they share a cache, race on one,
// or run cold.
//
// Eviction is deterministic FIFO in insertion order: when the table is
// full the oldest entry leaves first. Eviction can only turn a future hit
// back into a miss — both return the same bits — so the policy affects
// the hit rate, not any stream.
type SharedCache struct {
	mu        sync.Mutex
	m         map[cacheKey]hwsim.Measurement
	fifo      []cacheKey // insertion order; [head:] are live
	head      int
	capacity  int
	hits      int64
	misses    int64
	evictions int64
}

// SharedCacheStats is a point-in-time snapshot of the memo's accounting.
type SharedCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), 0 before any lookup.
func (s SharedCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewSharedCache builds an empty memo bounded to capacity entries
// (capacity <= 0 uses DefaultSharedCacheCapacity).
func NewSharedCache(capacity int) *SharedCache {
	if capacity <= 0 {
		capacity = DefaultSharedCacheCapacity
	}
	return &SharedCache{m: make(map[cacheKey]hwsim.Measurement), capacity: capacity}
}

// Stats snapshots the memo's accounting.
func (s *SharedCache) Stats() SharedCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SharedCacheStats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
		Entries: len(s.m), Capacity: s.capacity,
	}
}

// lookup serves one key, counting the outcome.
func (s *SharedCache) lookup(k cacheKey) (hwsim.Measurement, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mr, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return mr, ok
}

// store inserts one entry, evicting FIFO past capacity. Concurrent misses
// on the same key both computed the same pure result, so the second store
// overwrites with identical bits and adds no FIFO slot.
func (s *SharedCache) store(k cacheKey, mr hwsim.Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		s.m[k] = mr
		return
	}
	for len(s.m) >= s.capacity {
		delete(s.m, s.fifo[s.head])
		s.head++
		s.evictions++
	}
	// Compact the drained prefix once it dominates the ring, keeping the
	// amortized cost of an insert O(1).
	if s.head > len(s.fifo)/2 && s.head > 1024 {
		s.fifo = append(s.fifo[:0], s.fifo[s.head:]...)
		s.head = 0
	}
	s.fifo = append(s.fifo, k)
	s.m[k] = mr
}

// Shared layers a SharedCache over an inner backend. It is a view over
// shared state: many Shared instances (one per job, or one per cell of a
// comparison grid) consult and populate the same memo. It deliberately
// keeps the inner backend's Name — the wrapper must be observationally
// invisible, and backend names key cache entries and error messages alike.
type Shared struct {
	inner Backend
	sc    *SharedCache
}

// WithShared wraps inner with the fleet memo; a nil cache returns inner
// unchanged, so callers can thread an optional cache without branching.
func WithShared(inner Backend, sc *SharedCache) Backend {
	if sc == nil {
		return inner
	}
	return &Shared{inner: inner, sc: sc}
}

// Name implements Backend. It is the inner name, not "shared(...)": jobs
// running with and without the fleet cache must be indistinguishable.
func (s *Shared) Name() string { return s.inner.Name() }

// Seeded implements Backend.
func (s *Shared) Seeded() bool { return s.inner.Seeded() }

// Measure implements Backend: shared-stream measurements are order-
// dependent and therefore uncacheable; they pass straight through.
func (s *Shared) Measure(w tensor.Workload, cfg space.Config) hwsim.Measurement {
	return s.inner.Measure(w, cfg)
}

// MeasureSeeded implements Backend, serving repeats — from this job or any
// other job on the same device — out of the fleet memo.
func (s *Shared) MeasureSeeded(w tensor.Workload, cfg space.Config, noiseSeed int64) hwsim.Measurement {
	key := cacheKey{device: s.inner.Name(), workload: w.Key(), flat: cfg.Flat(), seed: noiseSeed}
	if mr, ok := s.sc.lookup(key); ok {
		return mr
	}
	// Measure outside the lock: a concurrent miss on the same key computes
	// the same pure result, and the duplicate store is an identical no-op.
	mr := s.inner.MeasureSeeded(w, cfg, noiseSeed)
	s.sc.store(key, mr)
	return mr
}

// NetworkLatency implements Backend.
func (s *Shared) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	return s.inner.NetworkLatency(deps, runs)
}
