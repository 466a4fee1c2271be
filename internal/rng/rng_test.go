package rng

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The whole determinism story hangs off this: a Rand built over Source
// must emit exactly the stream rand.New(rand.NewSource(seed)) does, across
// every method the tuners call.
func TestStreamMatchesStdlibSeeded(t *testing.T) {
	for _, seed := range []int64{0, 1, 17, -5, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := New(seed).Rand()
		for i := 0; i < 2000; i++ {
			switch i % 6 {
			case 0:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 1:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 2:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 3:
				if w, g := want.Intn(97), got.Intn(97); w != g {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 4:
				if w, g := want.Int63n(1<<50), got.Int63n(1<<50); w != g {
					t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, g, w)
				}
			case 5:
				wp, gp := want.Perm(7), got.Perm(7)
				for j := range wp {
					if wp[j] != gp[j] {
						t.Fatalf("seed %d draw %d: Perm %v != %v", seed, i, gp, wp)
					}
				}
			}
		}
	}
}

// Snapshot mid-stream, restore, and the continuation must be the same
// instance of the stream — bit-identical, draw for draw.
func TestSnapshotRestoreContinuation(t *testing.T) {
	for _, cut := range []int{0, 1, 13, 250} {
		src := New(17)
		r := src.Rand()
		for i := 0; i < cut; i++ {
			r.Float64()
			r.Intn(10)
		}
		st := src.State()

		// Reference continuation from the live source.
		var want []uint64
		ref := FromState(st)
		for i := 0; i < 200; i++ {
			want = append(want, ref.Rand().Uint64())
		}
		for i := 0; i < 200; i++ {
			if g := r.Uint64(); g != want[i] {
				t.Fatalf("cut %d draw %d: restored %d != live %d", cut, i, want[i], g)
			}
		}
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	src := New(-99)
	for i := 0; i < 37; i++ {
		src.Rand().Int63()
	}
	st := src.State()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got State
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("round trip %+v != %+v", got, st)
	}
	if a, b := FromState(got).Rand().Uint64(), FromState(st).Rand().Uint64(); a != b {
		t.Fatalf("restored streams diverge: %d != %d", a, b)
	}
}

// Reseeding resets the counter so a snapshot taken after Seed reflects the
// new stream.
func TestSeedResetsCounter(t *testing.T) {
	src := New(3)
	src.Rand().Int63()
	src.Seed(11)
	if st := src.State(); st != (State{Seed: 11, N: 0}) {
		t.Fatalf("state after Seed = %+v", st)
	}
	if a, b := src.Int63(), rand.NewSource(11).Int63(); a != b {
		t.Fatalf("post-Seed stream %d != fresh source %d", a, b)
	}
}

// FillUntil is a loop of Int63 calls that stops after the first value
// above limit: the same values, the same stop index, the same count, and
// a stream that FromState continues.
func TestFillUntilMatchesInt63(t *testing.T) {
	const size = 64
	for _, seed := range []int64{0, 1, 17, -5, 1 << 40} {
		// The seed's first raw values, to place a stop at a known index:
		// the first value above the largest of the first five is at index
		// last >= 5.
		peek := New(seed)
		var top5 int64
		last := -1
		for i := 0; i < size && last < 0; i++ {
			v := peek.Int63()
			switch {
			case i < 5:
				top5 = max(top5, v)
			case v > top5:
				last = i
			}
		}
		if last < 0 {
			t.Fatalf("seed %d: no raw value above %d in the first %d", seed, top5, size)
		}
		for _, tc := range []struct {
			name  string
			n     int
			limit int64
			stop  int
		}{
			{"empty", 0, -1, 0},
			{"no-stop", size, math.MaxInt64, size},
			{"stop-at-0", size, -1, 0},
			{"stop-at-last", last + 1, top5, last},
			{"half-limit", size, 1 << 62, -1}, // stop checked against the loop only
		} {
			for _, skip := range []int{0, 3} {
				got, want := New(seed), New(seed)
				for i := 0; i < skip; i++ {
					got.Int63()
					want.Int63()
				}
				buf := make([]int64, tc.n)
				stop := got.FillUntil(buf, tc.limit)
				wantStop := tc.n
				for i := range buf {
					v := want.Int63()
					if buf[i] != v {
						t.Fatalf("seed %d %s skip %d: value %d is %d, Int63 gives %d", seed, tc.name, skip, i, buf[i], v)
					}
					if v > tc.limit {
						wantStop = i
						break
					}
				}
				if stop != wantStop || (skip == 0 && tc.stop >= 0 && stop != tc.stop) {
					t.Fatalf("seed %d %s skip %d: stop %d, Int63 loop stops at %d (case wants %d)", seed, tc.name, skip, stop, wantStop, tc.stop)
				}
				if got.State() != want.State() {
					t.Fatalf("seed %d %s skip %d: state %+v, Int63 loop %+v", seed, tc.name, skip, got.State(), want.State())
				}
				restored := FromState(got.State())
				for i := 0; i < 8; i++ {
					if a, b := restored.Int63(), want.Int63(); a != b {
						t.Fatalf("seed %d %s skip %d: restored draw %d is %d, live %d", seed, tc.name, skip, i, a, b)
					}
				}
			}
		}
	}
}

// BenchmarkFillUntil draws a BAO chunk's raw values (2048 trials x 8
// knobs) with no stop, beside the same count of Int63 calls through the
// *rand.Rand view the sampler used before FillUntil.
func BenchmarkFillUntil(b *testing.B) {
	const n = 2048 * 8
	buf := make([]int64, n)
	b.Run("FillUntil", func(b *testing.B) {
		src := New(1)
		for i := 0; i < b.N; i++ {
			src.FillUntil(buf, math.MaxInt64)
		}
	})
	b.Run("Int63-loop", func(b *testing.B) {
		r := New(1).Rand()
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = r.Int63()
			}
		}
	})
}

// BenchmarkFromState restores a Source after one sampled BAO step's
// worth of draws (2048 x 32 trials x 8 knobs).
func BenchmarkFromState(b *testing.B) {
	st := State{Seed: 1, N: 2048 * 32 * 8}
	for i := 0; i < b.N; i++ {
		FromState(st)
	}
}
