package space

import (
	"math"
	"math/rand"
)

// NeighborhoodOpts tunes Neighborhood enumeration.
type NeighborhoodOpts struct {
	// MaxCandidates caps the returned set; 0 means DefaultMaxCandidates.
	// When the exact lattice ball holds more points than the cap, a uniform
	// subsample of the ball is returned instead of a truncated enumeration.
	MaxCandidates int
	// Exclude drops configs whose flat index is present (typically the
	// already-measured set), keeping BAO from re-proposing known points.
	Exclude map[uint64]bool
}

// DefaultMaxCandidates caps a Neighborhood call that leaves MaxCandidates
// at 0; tests and examples rely on it. BAO does not: active.BAOParams
// normalizes its own per-step cap to 2048, which keeps the Γ-fold
// surrogate evaluation of a step in the milliseconds.
const DefaultMaxCandidates = 8192

// Neighborhood returns the configurations whose knob-index vectors lie
// within Euclidean distance radius of center (excluding center itself),
// clamped to valid option ranges. This realizes the search scope C_t of the
// paper's Algorithms 3 and 4.
//
// The integer lattice ball is enumerated exactly when its size (computed by
// dynamic programming, before touching any config) is within the candidate
// cap; otherwise points are rejection-sampled uniformly from the ball. The
// result order is deterministic for the enumerated case and rng-determined
// for the sampled case.
//
// The sampled case rejects a trial at its first coordinate outside the
// knob's range, without walking the rest of its offset, yet consumes
// exactly the rng draws that walking every trial in full takes. The draw
// count is part of the contract: tuner snapshots restore an rng by
// replaying its counted draws, and the golden stream hashes pin it.
func (s *Space) Neighborhood(center Config, radius float64, opts NeighborhoodOpts, rng *rand.Rand) []Config {
	if radius <= 0 {
		return nil
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = DefaultMaxCandidates
	}
	r2 := radius * radius
	dim := len(s.knobs)
	ballSize := latticeBallCount(dim, r2)
	// Exact enumeration (with deterministic thinning) is cheaper than
	// rejection sampling up to fairly large balls, because the rejection
	// acceptance rate of a ball inside its bounding box collapses with
	// dimension.
	enumLimit := int64(maxCand) * 4
	if enumLimit < 65536 {
		enumLimit = 65536
	}
	if ballSize <= enumLimit {
		return s.enumerateBall(center, r2, maxCand, opts.Exclude)
	}
	return s.sampleBall(center, radius, maxCand, opts.Exclude, rng)
}

// latticeBallCount counts integer lattice points within squared distance r2
// of the origin in dim dimensions (including the origin), via the DP
// N(d, r2) = sum_k N(d-1, r2 - k^2).
func latticeBallCount(dim int, r2 float64) int64 {
	rInt := int(math.Floor(math.Sqrt(r2)))
	// counts[q] = number of (d-dim) lattice vectors with squared norm exactly q.
	q := int(math.Floor(r2))
	counts := make([]int64, q+1)
	counts[0] = 1
	const cap64 = int64(1) << 40
	for d := 0; d < dim; d++ {
		next := make([]int64, q+1)
		for norm, c := range counts {
			if c == 0 {
				continue
			}
			for k := -rInt; k <= rInt; k++ {
				nn := norm + k*k
				if nn > q {
					continue
				}
				next[nn] += c
				if next[nn] > cap64 {
					next[nn] = cap64
				}
			}
		}
		counts = next
	}
	var total int64
	for _, c := range counts {
		total += c
		if total > cap64 {
			return cap64
		}
	}
	return total
}

// enumerateBall walks the lattice ball exactly, in lexicographic offset
// order, then uniform-subsamples if the in-range result exceeds maxCand
// (rare: clamping usually keeps it below the DP bound).
func (s *Space) enumerateBall(center Config, r2 float64, maxCand int, exclude map[uint64]bool) []Config {
	dim := len(s.knobs)
	rInt := int(math.Floor(math.Sqrt(r2)))
	var out []Config
	idx := make([]int, dim)
	var rec func(pos int, used float64)
	rec = func(pos int, used float64) {
		if pos == dim {
			same := true
			for i := range idx {
				if idx[i] != center.Index[i] {
					same = false
					break
				}
			}
			if same {
				return
			}
			cp := make([]int, dim)
			copy(cp, idx)
			c := Config{space: s, Index: cp}
			if exclude != nil && exclude[c.Flat()] {
				return
			}
			out = append(out, c)
			return
		}
		kLen := s.knobs[pos].Len()
		for k := -rInt; k <= rInt; k++ {
			kk := float64(k * k)
			if used+kk > r2 {
				continue
			}
			v := center.Index[pos] + k
			if v < 0 || v >= kLen {
				continue
			}
			idx[pos] = v
			rec(pos+1, used+kk)
		}
	}
	rec(0, 0)
	if len(out) > maxCand {
		// Deterministic uniform thinning: take every stride-th point.
		stride := float64(len(out)) / float64(maxCand)
		thin := make([]Config, 0, maxCand)
		for i := 0; i < maxCand; i++ {
			thin = append(thin, out[int(float64(i)*stride)])
		}
		out = thin
	}
	return out
}

// sampleBall draws offsets exactly uniformly from the lattice ball via the
// same norm-count dynamic program used by latticeBallCount, then rejects
// only clamping violations, the zero offset, duplicates and excluded
// configs. Sampling one offset is O(dim * radius), independent of the
// ball volume.
//
// A trial is rejected at its first coordinate outside the knob's range,
// before the rest of its offset is walked and before anything is
// allocated; ballSampler.sampleIn still consumes the draws the rest of the
// walk would have, so rng leaves every call in the state that drawing
// every trial in full leaves it in, and the result is the same.
func (s *Space) sampleBall(center Config, radius float64, maxCand int, exclude map[uint64]bool, rng *rand.Rand) []Config {
	dim := len(s.knobs)
	bs := newBallSampler(dim, radius)
	// Knob i allows the offsets [lo[i], hi[i]] around the center.
	lo := make([]int, dim)
	hi := make([]int, dim)
	radix := make([]uint64, dim)
	for i, k := range s.knobs {
		n := k.Len()
		lo[i] = -center.Index[i]
		hi[i] = n - 1 - center.Index[i]
		radix[i] = uint64(n)
	}
	seen := make(map[uint64]bool, maxCand)
	out := make([]Config, 0, maxCand)
	// Rejections now come only from clamping at space edges, duplicates and
	// the excluded set, so a modest trial budget suffices.
	maxTrials := maxCand * 32
	offset := make([]int, dim)
	for t := 0; t < maxTrials && len(out) < maxCand; t++ {
		if !bs.sampleIn(offset, lo, hi, rng) {
			continue
		}
		zero := true
		var f uint64 // Config.Flat of center+offset
		for i, k := range offset {
			if k != 0 {
				zero = false
			}
			f = f*radix[i] + uint64(center.Index[i]+k)
		}
		if zero || seen[f] || (exclude != nil && exclude[f]) {
			continue
		}
		seen[f] = true
		idx := make([]int, dim)
		for i, k := range offset {
			idx[i] = center.Index[i] + k
		}
		out = append(out, Config{space: s, Index: idx})
	}
	return out
}

// ballSampler samples integer vectors uniformly from the dim-dimensional
// lattice ball of the given radius. cum[d][q] counts d-dimensional vectors
// with squared norm <= q; coordinates are drawn sequentially with
// probability proportional to the count of completions.
type ballSampler struct {
	dim  int
	rInt int
	q    int
	cum  [][]int64
	// safe bounds the raw Int63 values that rng.Int63n accepts on the first
	// draw for every total the sampler asks for (see int63n).
	safe int64
	// raw keeps the raw draws of a rejected trial's skipped coordinates.
	raw []int64
}

func newBallSampler(dim int, radius float64) *ballSampler {
	q := int(math.Floor(radius * radius))
	rInt := int(math.Floor(radius))
	// exact[d][n] = number of d-dim vectors with squared norm exactly n.
	exact := make([]int64, q+1)
	exact[0] = 1
	cum := make([][]int64, dim+1)
	// Counts are clamped far below overflow; clamping only engages for
	// balls with >2^50 points, where near-uniformity is indistinguishable
	// from uniformity for a few thousand draws.
	const countCap = int64(1) << 50
	toCum := func(ex []int64) []int64 {
		c := make([]int64, q+1)
		var run int64
		for n := 0; n <= q; n++ {
			run += ex[n]
			if run > countCap {
				run = countCap
			}
			c[n] = run
		}
		return c
	}
	cum[0] = toCum(exact)
	maxTotal := cum[0][q]
	for d := 1; d <= dim; d++ {
		next := make([]int64, q+1)
		for n, c := range exact {
			if c == 0 {
				continue
			}
			for k := -rInt; k <= rInt; k++ {
				nn := n + k*k
				if nn <= q {
					next[nn] += c
					if next[nn] > countCap {
						next[nn] = countCap
					}
				}
			}
		}
		exact = next
		cum[d] = toCum(exact)
		maxTotal = max(maxTotal, cum[d][q])
	}
	return &ballSampler{
		dim: dim, rInt: rInt, q: q, cum: cum,
		safe: math.MaxInt64 - maxTotal,
		raw:  make([]int64, dim),
	}
}

// sampleIn draws one offset uniformly from the ball (including the origin;
// callers filter the zero offset) and reports whether offset[i] lies in
// [lo[i], hi[i]] for every i. It stops walking at the first coordinate
// outside its range, leaving offset partly filled, and skips the rest of
// the trial's draws with skip. Either way rng ends in the state that
// drawing the whole offset leaves it in.
func (b *ballSampler) sampleIn(offset, lo, hi []int, rng *rand.Rand) bool {
	q := b.q
	for i := 0; i < b.dim; i++ {
		rem := b.dim - i - 1
		k, left := b.pick(rem, q, b.int63n(rng, b.cum[rem+1][q]))
		if k < lo[i] || k > hi[i] {
			b.skip(i+1, left, rng)
			return false
		}
		offset[i] = k
		q = left
	}
	return true
}

// skip consumes the draws that coordinates from..dim-1 of a trial take,
// given the squared-norm budget q left after coordinate from-1, without
// walking them. Every total a trial asks for is at most the ball's
// size, so a raw value <= safe is exactly one Int63n draw whatever that
// coordinate's total is. A raw value above safe needs the exact total:
// the walk is replayed from the raw values kept so far, and the trial is
// finished with exact Int63n semantics.
func (b *ballSampler) skip(from, q int, rng *rand.Rand) {
	for j := from; j < b.dim; j++ {
		v := rng.Int63()
		if v <= b.safe {
			b.raw[j] = v
			continue
		}
		for i := from; i < j; i++ {
			rem := b.dim - i - 1
			_, q = b.pick(rem, q, b.raw[i]%b.cum[rem+1][q])
		}
		rem := b.dim - j - 1
		_, q = b.pick(rem, q, finishInt63n(rng, b.cum[rem+1][q], v))
		for i := j + 1; i < b.dim; i++ {
			rem := b.dim - i - 1
			_, q = b.pick(rem, q, b.int63n(rng, b.cum[rem+1][q]))
		}
		return
	}
}

// pick maps draw, uniform in [0, cum[rem+1][q]), to the coordinate k whose
// block of completions holds it, and returns k with the squared-norm
// budget left for the remaining rem coordinates.
func (b *ballSampler) pick(rem, q int, draw int64) (k, left int) {
	for k := -b.rInt; k <= b.rInt; k++ {
		nn := q - k*k
		if nn < 0 {
			continue
		}
		w := b.cum[rem][nn]
		if draw < w {
			return k, nn
		}
		draw -= w
	}
	// Only reachable when count clamping broke the exact identity;
	// fall back to the always-valid zero offset.
	return 0, q
}

// int63n returns rng.Int63n(n) for 0 < n <= the ball's size, taking the
// same raw draws. Int63n redraws a raw value only above
// 2^63-1-(2^63 mod n), which is at least safe, so a first draw <= safe is
// always kept as v%n (for a power-of-two n Int63n masks, v&(n-1) == v%n).
func (b *ballSampler) int63n(rng *rand.Rand, n int64) int64 {
	v := rng.Int63()
	if v <= b.safe {
		return v % n
	}
	return finishInt63n(rng, n, v)
}

// finishInt63n completes rng.Int63n(n) whose first raw draw was v, with
// math/rand's exact semantics. A power-of-two n never redraws: 2^63 mod n
// is 0.
func finishInt63n(rng *rand.Rand, n, v int64) int64 {
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	for v > limit {
		v = rng.Int63()
	}
	return v % n
}
