package space

import (
	"math"
	"math/rand"

	"repro/internal/par"
)

// NeighborhoodOpts tunes Neighborhood enumeration.
type NeighborhoodOpts struct {
	// MaxCandidates caps the returned set; a cap <= 0 returns nothing.
	// When the exact lattice ball holds more points than the cap, a uniform
	// subsample of the ball is returned instead of a truncated enumeration.
	MaxCandidates int
	// Exclude drops configs whose flat index is present (typically the
	// already-measured set), keeping BAO from re-proposing known points.
	Exclude map[uint64]bool
}

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
// The sampled case draws each chunk of trials' raw rng values serially,
// walks the chunk on par.Workers() goroutines, rejecting a trial at its
// first coordinate outside the knob's range, and folds the accepted
// trials serially in trial order (see sampleBall). It consumes exactly
// the rng draws that walking every trial in full takes, and returns the
// same configs in the same order at any GOMAXPROCS. The draw count is
// part of the contract: tuner snapshots restore an rng by replaying its
// counted draws, and the golden stream hashes pin it.
func (s *Space) Neighborhood(center Config, radius float64, opts NeighborhoodOpts, rng *rand.Rand) []Config {
	maxCand := opts.MaxCandidates
	if radius <= 0 || maxCand <= 0 {
		return nil
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
	return s.sampleBall(center, radius, maxCand, opts.Exclude, rng, par.Workers())
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

// walkBlock is the number of buffered trials one par.For index walks.
const walkBlock = 256

// sampleBall draws offsets exactly uniformly from the lattice ball via the
// same norm-count dynamic program used by latticeBallCount, then rejects
// only clamping violations, the zero offset, duplicates and excluded
// configs. Sampling one offset is O(dim * radius), independent of the
// ball volume.
//
// The trials run in chunks of three stages:
//
//  1. Serial draw: the raw rng.Int63 values of the chunk's trials are
//     drawn into a buffer in order, dim per trial, stopping at the first
//     raw value above the ball's one-draw bound (see int63n).
//  2. Parallel walk: the complete trials before that value are walked on
//     par.For across workers; a trial is rejected at its first
//     coordinate outside the knob's range. Each walk writes only its own
//     trial's slots: ok[t], and the offset over its raw draws.
//  3. Serial fold: the accepted trials pass the zero, duplicate and
//     Exclude checks in trial order. A trial that drew a raw value above
//     the bound is finished last, serially, with exact Int63n semantics.
//
// The rng stream is the one a serial full walk of every trial takes.
// Every trial takes exactly dim raw draws unless one of them is above the
// bound, and the fill stops there. A trial adds at most one config, so a
// chunk of min(maxTrials-t, maxCand-len(out)) trials never draws past the
// trial at which the serial loop would stop. The result and its order
// are therefore the same for any worker count.
func (s *Space) sampleBall(center Config, radius float64, maxCand int, exclude map[uint64]bool, rng *rand.Rand, workers int) []Config {
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
	fold := func(offset []int64) {
		zero := true
		var f uint64 // Config.Flat of center+offset
		for i, k := range offset {
			if k != 0 {
				zero = false
			}
			f = f*radix[i] + uint64(center.Index[i]+int(k))
		}
		if zero || seen[f] || (exclude != nil && exclude[f]) {
			return
		}
		seen[f] = true
		idx := make([]int, dim)
		for i, k := range offset {
			idx[i] = center.Index[i] + int(k)
		}
		out = append(out, Config{space: s, Index: idx})
	}
	// Rejections now come only from clamping at space edges, duplicates and
	// the excluded set, so a modest trial budget suffices.
	maxTrials := maxCand * 32
	// No chunk holds more than maxCand trials. buf holds a chunk's raw
	// draws, dim per trial, and the walk turns them into offsets in place.
	buf := make([]int64, maxCand*dim)
	ok := make([]bool, maxCand)
	safe := bs.safe
	for t := 0; t < maxTrials && len(out) < maxCand; {
		n := min(maxTrials-t, maxCand-len(out))
		// Serial draw; filled ends at the index of a value above safe.
		filled := n * dim
		for j := range buf[:filled] {
			v := rng.Int63()
			buf[j] = v
			if v > safe {
				filled = j
				break
			}
		}
		whole := filled / dim
		// Parallel walk of the complete trials.
		par.For((whole+walkBlock-1)/walkBlock, workers, func(b int) {
			from, to := b*walkBlock, min(whole, (b+1)*walkBlock)
			bs.walk(buf[from*dim:to*dim], ok[from:to], lo, hi)
		})
		// Serial fold, in trial order.
		for i := 0; i < whole; i++ {
			if ok[i] {
				fold(buf[i*dim : (i+1)*dim])
			}
		}
		t += whole
		if whole < n {
			trial := buf[whole*dim : (whole+1)*dim]
			if bs.finish(trial, filled-whole*dim, lo, hi, rng) {
				fold(trial)
			}
			t++
		}
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
	}
}

// walk replaces the raw draws of len(ok) trials in buf, dim per trial and
// each at most safe, with offsets drawn uniformly from the ball (including
// the origin; callers filter the zero offset). ok[t] reports whether
// trial t's offset lies in [lo[i], hi[i]] for every knob i. A raw value
// <= safe is exactly one rng.Int63n draw whatever the coordinate's total
// is. A trial stops at its first coordinate outside the range, leaving
// its offset partly written; its remaining raw draws were taken all the
// same.
func (b *ballSampler) walk(buf []int64, ok []bool, lo, hi []int) {
	dim, cum := len(lo), b.cum
	hi = hi[:dim]
	for t := range ok {
		trial := buf[t*dim : (t+1)*dim]
		q := b.q
		in := true
		for i, v := range trial {
			rem := dim - i - 1
			k, left := b.pick(rem, q, v%cum[rem+1][q])
			if k < lo[i] || k > hi[i] {
				in = false
				break
			}
			trial[i] = int64(k)
			q = left
		}
		ok[t] = in
	}
}

// finish replaces the raw draws of a trial whose draw at coordinate last
// is above safe with its offset: the coordinates before last keep their
// raw draws, last completes rng.Int63n with finishInt63n, and the rest
// draw with int63n, so rng takes exactly the draws a full walk of the
// trial takes. Every coordinate is walked, in range or not, because each
// total depends on the budget the coordinates before it leave. It reports
// whether the whole offset is in range.
func (b *ballSampler) finish(trial []int64, last int, lo, hi []int, rng *rand.Rand) bool {
	q := b.q
	in := true
	for i := range trial {
		rem := b.dim - i - 1
		total := b.cum[rem+1][q]
		var draw int64
		switch {
		case i < last:
			draw = trial[i] % total
		case i == last:
			draw = finishInt63n(rng, total, trial[i])
		default:
			draw = b.int63n(rng, total)
		}
		k, left := b.pick(rem, q, draw)
		if k < lo[i] || k > hi[i] {
			in = false
		}
		trial[i] = int64(k)
		q = left
	}
	return in
}

// pick maps draw, uniform in [0, cum[rem+1][q]), to the coordinate k whose
// block of completions holds it, and returns k with the squared-norm
// budget left for the remaining rem coordinates.
func (b *ballSampler) pick(rem, q int, draw int64) (k, left int) {
	row := b.cum[rem]
	for k := -b.rInt; k <= b.rInt; k++ {
		nn := q - k*k
		if nn < 0 {
			continue
		}
		w := row[nn]
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
