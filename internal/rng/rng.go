// Package rng provides a serializable deterministic random source.
//
// Source wraps the standard library generator behind a draw counter so the
// full generator state is captured by two words: the seed it was created
// from and the number of primitive draws consumed since. Restoring replays
// the counted draws against a fresh generator, which makes snapshots exact
// by construction: the restored stream is the same *instance* of the
// stream, not a statistically equivalent one.
//
// Bit-compatibility contract: rand.New(rng.New(seed)) produces exactly the
// same value sequence as rand.New(rand.NewSource(seed)). Every golden
// sample-stream hash in this repository depends on that equivalence, which
// is why Source wraps math/rand's additive-lagged-Fibonacci source instead
// of swapping in a different two-word generator (splitmix64/PCG would
// serialize just as small but would change every historical stream).
//
// Lazy is the same stream for the other common shape of use: a fresh seed
// and a handful of draws, as in hwsim's per-measurement noise. Seeding
// math/rand fills 607 words before the first draw; Lazy computes only the
// words its draws read and hands over to a seeded math/rand source if the
// stream runs long.
package rng

import "math/rand"

// Source is a deterministic rand.Source64 whose complete state is
// (Seed, N): the construction seed plus the number of primitive draws
// consumed so far. It is not safe for concurrent use, matching rand.Rand.
type Source struct {
	seed int64
	n    uint64
	src  rand.Source64
	r    *rand.Rand
}

// State is the serializable form of a Source. Both fields round-trip
// through JSON exactly (int64/uint64 are emitted as integer literals).
type State struct {
	// Seed is the value the underlying generator was seeded with.
	Seed int64 `json:"seed"`
	// N is the number of primitive draws consumed since seeding.
	N uint64 `json:"n"`
}

// New returns a Source seeded like rand.NewSource(seed), with the draw
// counter at zero.
func New(seed int64) *Source {
	s := &Source{}
	s.reseed(seed)
	s.r = rand.New(s)
	return s
}

// FromState reconstructs a Source by reseeding and replaying st.N draws.
// The replay cost is linear in N: BenchmarkFromState replays 524,288
// draws in about 2.8 ms on one core of a 2-CPU Xeon host. N is not small
// for every tuner: one sampled BAO neighborhood draws up to 2048 x 32
// trials x 8 knobs = 524,288 values, so restoring a BAO session costs
// about that much per sampled step it has taken.
func FromState(st State) *Source {
	s := New(st.Seed)
	for i := uint64(0); i < st.N; i++ {
		s.src.Int63()
	}
	s.n = st.N
	return s
}

func (s *Source) reseed(seed int64) {
	s.seed = seed
	s.n = 0
	// rand.NewSource documents that the returned Source implements
	// Source64; the assertion guards against that contract changing.
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		panic("rng: rand.NewSource no longer implements Source64") //lint:ignore panicpath stdlib contract violation is unrecoverable
	}
	s.src = src
}

// Int63 draws the next value, advancing the counter by one.
func (s *Source) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// FillUntil draws raw Int63 values into buf in order, stopping after the
// first value above limit. It returns that value's index, or len(buf)
// when no value is above limit, and advances the counter by the number of
// values drawn: the values, their order and the count are exactly those
// of a loop of Int63 calls that stops at the same value.
func (s *Source) FillUntil(buf []int64, limit int64) int {
	src := s.src
	for i := range buf {
		v := src.Int63()
		buf[i] = v
		if v > limit {
			s.n += uint64(i + 1)
			return i
		}
	}
	s.n += uint64(len(buf))
	return len(buf)
}

// Uint64 draws the next value, advancing the counter by one. The
// underlying generator advances exactly one step per Uint64, the same as
// per Int63, so a single counter covers both entry points.
func (s *Source) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed reseeds the generator and resets the draw counter.
func (s *Source) Seed(seed int64) {
	s.reseed(seed)
}

// Rand returns a *rand.Rand view over this source. The view holds no
// state of its own for the methods used in this repository (Int63, Int63n,
// Intn, Uint64, Float64, Perm, Shuffle all delegate straight to the
// source), so snapshotting the Source captures the view too. The same
// instance is returned on every call.
func (s *Source) Rand() *rand.Rand {
	return s.r
}

// State captures the current (seed, draw count) pair.
func (s *Source) State() State {
	return State{Seed: s.seed, N: s.n}
}
