package backend

import (
	"sync"
	"testing"
)

// TestSharedCacheCrossBackendHits is the cross-job reuse contract: two
// independent backend stacks (two jobs) over the same device share one
// memo, the second stack's sweep is served entirely from the first's
// misses, and every served measurement is bit-identical to what a cold
// backend returns.
func TestSharedCacheCrossBackendHits(t *testing.T) {
	w, sp := testWorkload(t)
	sc := NewSharedCache(0)

	jobA, err := New("gtx1080ti", 11)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := New("gtx1080ti", 11)
	if err != nil {
		t.Fatal(err)
	}
	sharedA := WithShared(jobA, sc)
	sharedB := WithShared(jobB, sc)
	cold, err := New("gtx1080ti", 11)
	if err != nil {
		t.Fatal(err)
	}

	for i := uint64(0); i < 24; i++ {
		sharedA.MeasureSeeded(w, sp.FromFlat(i), int64(i))
	}
	for i := uint64(0); i < 24; i++ {
		got := sharedB.MeasureSeeded(w, sp.FromFlat(i), int64(i))
		want := cold.MeasureSeeded(w, sp.FromFlat(i), int64(i))
		if !sameMeasurement(got, want) {
			t.Fatalf("flat %d: shared hit differs from cold measurement", i)
		}
	}
	if n := jobB.Simulator().MeasureCount(); n != 0 {
		t.Fatalf("job B issued %d raw simulator calls; the fleet memo should have served all 24", n)
	}
	st := sc.Stats()
	if st.Hits != 24 || st.Misses != 24 || st.Entries != 24 {
		t.Fatalf("stats = %+v, want 24 hits / 24 misses / 24 entries", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

// TestSharedCacheKeyedByDevice proves a fleet memo spanning devices can
// never serve a measurement from the wrong one: same workload, same
// config, same seed, different device names are distinct entries.
func TestSharedCacheKeyedByDevice(t *testing.T) {
	w, sp := testWorkload(t)
	sc := NewSharedCache(0)
	devices := Devices()
	if len(devices) < 2 {
		t.Skip("needs two registered devices")
	}
	c := sp.FromFlat(9)
	var first []float64
	for _, name := range devices[:2] {
		b, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		mr := WithShared(b, sc).MeasureSeeded(w, c, 42)
		first = append(first, mr.TimeMS)
	}
	if st := sc.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("cross-device lookups must not collide: %+v", st)
	}
	_ = first
}

// TestSharedCacheEvictionFIFO fills a capacity-4 memo and checks the
// oldest insertions leave first, the bound holds, and an evicted entry
// re-misses (never a wrong value).
func TestSharedCacheEvictionFIFO(t *testing.T) {
	w, sp := testWorkload(t)
	sc := NewSharedCache(4)
	b, err := New("gtx1080ti", 13)
	if err != nil {
		t.Fatal(err)
	}
	sh := WithShared(b, sc)

	for i := uint64(0); i < 6; i++ { // inserts 0..5; capacity 4 evicts 0 and 1
		sh.MeasureSeeded(w, sp.FromFlat(i), int64(i))
	}
	st := sc.Stats()
	if st.Entries != 4 || st.Evictions != 2 {
		t.Fatalf("after 6 inserts at cap 4: %+v", st)
	}
	// 2..5 are resident; 0 was evicted first.
	sh.MeasureSeeded(w, sp.FromFlat(5), 5)
	if got := sc.Stats(); got.Hits != 1 {
		t.Fatalf("resident entry missed: %+v", got)
	}
	want := b.MeasureSeeded(w, sp.FromFlat(0), 0)
	got := sh.MeasureSeeded(w, sp.FromFlat(0), 0)
	if !sameMeasurement(want, got) {
		t.Fatal("re-measured evicted entry differs")
	}
	if st := sc.Stats(); st.Misses != 7 || st.Entries != 4 {
		t.Fatalf("evicted entry should re-miss and re-insert within the bound: %+v", st)
	}
}

// TestSharedCacheUnseededPassThrough: shared-stream measurements depend on
// call order and must never enter the fleet memo.
func TestSharedCacheUnseededPassThrough(t *testing.T) {
	w, sp := testWorkload(t)
	sc := NewSharedCache(0)
	b, err := New("gtx1080ti", 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := WithShared(b, sc)
	sh.Measure(w, sp.FromFlat(3))
	sh.Measure(w, sp.FromFlat(3))
	if st := sc.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("unseeded Measure touched the memo: %+v", st)
	}
	if n := b.Simulator().MeasureCount(); n != 2 {
		t.Fatalf("pass-through lost calls: %d", n)
	}
	if sh.Name() != b.Name() {
		t.Fatalf("Shared must keep the inner name, got %q", sh.Name())
	}
	if WithShared(b, nil) != Backend(b) {
		t.Fatal("nil cache must return the inner backend unchanged")
	}
}

// TestSharedCacheConcurrent hammers one memo from many goroutines under
// the race detector: every returned measurement must equal the cold
// backend's, no matter who populated the entry.
func TestSharedCacheConcurrent(t *testing.T) {
	w, sp := testWorkload(t)
	sc := NewSharedCache(0)
	cold, err := New("gtx1080ti", 17)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 16)
	for i := range want {
		want[i] = cold.MeasureSeeded(w, sp.FromFlat(uint64(i)), int64(i)).TimeMS
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := New("gtx1080ti", 17)
			if err != nil {
				errs <- err.Error()
				return
			}
			sh := WithShared(b, sc)
			for i := 0; i < 16; i++ {
				got := sh.MeasureSeeded(w, sp.FromFlat(uint64(i)), int64(i)).TimeMS
				if got != want[i] {
					errs <- "concurrent shared measurement diverged from cold backend"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := sc.Stats(); st.Entries != 16 {
		t.Fatalf("entries = %d, want 16", st.Entries)
	}
}
