package backend

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

func testWorkload(t *testing.T) (tensor.Workload, *space.Space) {
	t.Helper()
	w := tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, sp
}

func sameMeasurement(a, b hwsim.Measurement) bool {
	return a.Valid == b.Valid &&
		math.Float64bits(a.GFLOPS) == math.Float64bits(b.GFLOPS) &&
		math.Float64bits(a.TimeMS) == math.Float64bits(b.TimeMS)
}

func TestRegistryKnownDevices(t *testing.T) {
	names := Devices()
	if len(names) == 0 {
		t.Fatal("no registered devices")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("device list not sorted: %v", names)
		}
	}
	for _, name := range names {
		b, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Name() = %q, want %q", b.Name(), name)
		}
		if !b.Seeded() {
			t.Fatalf("%s: simulator backend must report Seeded", name)
		}
		if b.Simulator() == nil {
			t.Fatalf("%s: nil simulator", name)
		}
	}
}

func TestRegistryUnknownDevice(t *testing.T) {
	_, err := New("tpu-v9", 1)
	if err == nil {
		t.Fatal("unknown device must error")
	}
	if !strings.Contains(err.Error(), "tpu-v9") {
		t.Fatalf("error should name the device: %v", err)
	}
}

func TestCacheServesIdenticalRepeats(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(0)
	cache := WithShared(b, sc)
	c := sp.FromFlat(17)

	first := cache.MeasureSeeded(w, c, 99)
	again := cache.MeasureSeeded(w, c, 99)
	if !sameMeasurement(first, again) {
		t.Fatal("cached repeat differs from first measurement")
	}
	if st := sc.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v after one repeat, want 1 miss / 1 hit / 1 entry", st)
	}

	// A different noise seed is a different measurement, not a hit.
	other := cache.MeasureSeeded(w, c, 100)
	if st := sc.Stats(); st.Misses != 2 {
		t.Fatalf("distinct seed must miss: misses=%d", st.Misses)
	}
	if sameMeasurement(first, other) {
		t.Fatal("distinct noise seeds produced bitwise-equal noise (suspicious)")
	}
}

func TestCacheMatchesUncachedBackend(t *testing.T) {
	w, sp := testWorkload(t)
	raw, err := New("gtx1080ti", 7)
	if err != nil {
		t.Fatal(err)
	}
	cachedInner, err := New("gtx1080ti", 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(0)
	cache := WithShared(cachedInner, sc)
	for i := uint64(0); i < 32; i++ {
		f := (i * 7) % 16 // repeats guaranteed
		c := sp.FromFlat(f)
		a := raw.MeasureSeeded(w, c, int64(f))
		b := cache.MeasureSeeded(w, c, int64(f))
		if !sameMeasurement(a, b) {
			t.Fatalf("flat %d: cache changed the observable measurement", f)
		}
	}
	st := sc.Stats()
	if st.Hits == 0 {
		t.Fatal("repeat sweep produced no cache hits")
	}
	if st.Misses+st.Hits != 32 {
		t.Fatalf("accounting broken: %d+%d != 32", st.Misses, st.Hits)
	}
}

// TestCacheUnseededPassThrough: shared-stream Measure calls interleaved
// with seeded ones always reach the inner backend and never enter the memo,
// while the seeded repeat is still served from it.
func TestCacheUnseededPassThrough(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 5)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(0)
	cache := WithShared(b, sc)
	c := sp.FromFlat(3)
	cache.Measure(w, c)
	cache.MeasureSeeded(w, c, 7)
	cache.Measure(w, c)
	cache.MeasureSeeded(w, c, 7)
	if st := sc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("shared-stream Measure must never be cached: %+v", st)
	}
	if n := b.Simulator().MeasureCount(); n != 3 {
		t.Fatalf("pass-through lost calls: %d, want 2 unseeded + 1 seeded miss", n)
	}
}
