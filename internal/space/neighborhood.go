package space

import (
	"math"
	"math/bits"

	"repro/internal/par"
	"repro/internal/rng"
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
// The sampled case draws each chunk of trials' raw values from src in one
// FillUntil call, walks the chunk on par.Workers() goroutines, rejecting
// a trial at its first coordinate outside the knob's range, and folds the
// accepted trials serially in trial order (see sampleBall). It consumes
// exactly the draws that walking every trial in full with
// src.Rand().Int63n takes, and returns the same configs in the same order
// at any GOMAXPROCS. The draw count is part of the contract: tuner
// snapshots restore src by replaying its counted draws, and the golden
// stream hashes pin it. The enumerated case draws nothing.
func (s *Space) Neighborhood(center Config, radius float64, opts NeighborhoodOpts, src *rng.Source) []Config {
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
	return s.sampleBall(center, radius, maxCand, opts.Exclude, src, par.Workers())
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

// drawSource is the counted raw stream sampleBall draws from: a
// *rng.Source in production. Int63 is one raw draw; FillUntil is
// rng.Source.FillUntil, a run of them stopping after the first value
// above limit.
type drawSource interface {
	Int63() int64
	FillUntil(buf []int64, limit int64) int
}

// sampleBall draws offsets exactly uniformly from the lattice ball via the
// same norm-count dynamic program used by latticeBallCount, then rejects
// only clamping violations, the zero offset, duplicates and excluded
// configs. Sampling one offset is O(dim * radius), independent of the
// ball volume.
//
// The trials run in chunks of three stages:
//
//  1. Serial draw: one src.FillUntil call draws the raw values of the
//     chunk's trials into a buffer in order, dim per trial, stopping
//     after the first raw value above the ball's one-draw bound (see
//     int63n).
//  2. Parallel walk: the complete trials before that value are walked on
//     par.For across workers; a trial is rejected at its first
//     coordinate outside the knob's range, with no scan, by the
//     per-call window table (see windows). Each walk writes only its own
//     trial's slots: ok[t], and the offset over its raw draws.
//  3. Serial fold: the accepted trials pass the zero, duplicate and
//     Exclude checks in trial order. A trial that drew a raw value above
//     the bound is finished last, serially, with exact Int63n semantics.
//
// The stream is the one a serial full walk of every trial with Int63n
// takes. Every trial takes exactly dim raw draws unless one of them is
// above the bound, and the fill stops there. A trial adds at most one
// config, so a chunk of min(maxTrials-t, maxCand-len(out)) trials never
// draws past the trial at which the serial loop would stop. The result
// and its order are therefore the same for any worker count.
func (s *Space) sampleBall(center Config, radius float64, maxCand int, exclude map[uint64]bool, src drawSource, workers int) []Config {
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
	win := bs.windows(lo, hi)
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
	for t := 0; t < maxTrials && len(out) < maxCand; {
		n := min(maxTrials-t, maxCand-len(out))
		// Serial draw; filled ends at the index of a value above safe.
		filled := src.FillUntil(buf[:n*dim], bs.safe)
		whole := filled / dim
		// Parallel walk of the complete trials.
		par.For((whole+walkBlock-1)/walkBlock, workers, func(b int) {
			from, to := b*walkBlock, min(whole, (b+1)*walkBlock)
			bs.walk(buf[from*dim:to*dim], ok[from:to], win)
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
			if bs.finish(trial, filled-whole*dim, lo, hi, src) {
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

// window is what the walk needs to draw coordinate i with squared-norm
// budget q left, for one call's knob ranges. pick lays the draws
// [0, total) out as one block of completions per offset k, from -rInt up:
// block k is cum[rem][q-k*k] draws long (empty when k*k > q) and ends at
// ends[k+rInt]. The offsets below lo[i] hold [0, a), those in
// [lo[i], hi[i]] hold [a, b), and the blocks of all offsets end at sum. A
// draw in [b, sum) or below a is out of range; one at or beyond sum is
// pick's clamped-count fallback, offset 0. newBallSampler's counts keep
// sum >= total, so the fallback is unreachable with them, but the walk
// keeps pick's mapping for any table.
type window struct {
	total, a, b, sum int64
	ends             []int64
	// m and l reduce a raw draw modulo total without a division (see mod).
	m uint64
	l uint
}

// newWindow returns a window over [0, total) with mod's reciprocal set:
// l = ceil(log2 total) and m = ceil(2^(63+l) / total), which fits 64 bits.
func newWindow(total int64) window {
	l := uint(bits.Len64(uint64(total - 1)))
	hi, lo := uint64(0), uint64(1)<<63 // 2^(63+l) as a 128-bit value
	if l > 0 {
		hi, lo = 1<<(l-1), 0
	}
	m, rem := bits.Div64(hi, lo, uint64(total))
	if rem != 0 {
		m++
	}
	return window{total: total, m: m, l: l}
}

// mod returns v % w.total for 0 <= v < 2^63 with a multiply and a shift in
// place of a division. floor(v/total) = floor(m*v / 2^(63+l)) for every
// such v, because total*m - 2^(63+l) < total <= 2^l (Granlund and
// Montgomery, "Division by invariant integers using multiplication",
// 1994, Theorem 4.2 with N = 63).
func (w *window) mod(v int64) int64 {
	hi, lo := bits.Mul64(w.m, uint64(v))
	quo := (hi<<1 | lo>>63) >> w.l
	return v - int64(quo)*w.total
}

// windows returns the window table of one sampleBall call: entry
// i*(q+1)+r is coordinate i with budget r left (at BAO's settings 8 x 21
// entries).
func (b *ballSampler) windows(lo, hi []int) []window {
	rows, r, span := b.q+1, b.rInt, 2*b.rInt+1
	win := make([]window, len(lo)*rows)
	ends := make([]int64, len(win)*span)
	for i := range lo {
		rem := b.dim - i - 1
		for q := 0; q < rows; q++ {
			at := i*rows + q
			e := ends[at*span : (at+1)*span]
			var end int64
			for k := -r; k <= r; k++ {
				if k*k <= q {
					end += b.cum[rem][q-k*k]
				}
				e[k+r] = end
			}
			w := newWindow(b.cum[rem+1][q])
			w.ends, w.b, w.sum = e, e[min(hi[i], r)+r], e[2*r]
			if lo[i] > -r {
				w.a = e[lo[i]-1+r]
			}
			win[at] = w
		}
	}
	return win
}

// walk replaces the raw draws of len(ok) trials in buf, dim per trial and
// each at most safe, with offsets drawn uniformly from the ball (including
// the origin; callers filter the zero offset). win is the windows table of
// the call's ranges lo and hi; ok[t] reports whether trial t's offset lies
// in [lo[i], hi[i]] for every knob i. A raw value <= safe is exactly one
// rng.Int63n draw whatever the coordinate's total is, so its draw is
// v % total. A trial stops at its first coordinate outside the range,
// leaving its offset partly written; its remaining raw draws were taken
// all the same.
func (b *ballSampler) walk(buf []int64, ok []bool, win []window) {
	dim, rows := b.dim, b.q+1
	for t := range ok {
		trial := buf[t*dim : (t+1)*dim]
		q := b.q
		in := true
		for i, v := range trial {
			w := &win[i*rows+q]
			k, left, kin := b.coord(w, q, w.mod(v))
			if !kin {
				in = false
				break
			}
			trial[i] = int64(k)
			q = left
		}
		ok[t] = in
	}
}

// coord maps draw, uniform in [0, w.total), to the offset k pick gives
// it and the budget left, and reports whether k is in the coordinate's
// range; w is the coordinate's window at budget q. A draw outside
// [w.a, w.b) is decided without looking at the blocks, and one inside
// counts the blocks that end at or below it, with no branch per block.
func (b *ballSampler) coord(w *window, q int, draw int64) (k, left int, in bool) {
	if draw >= w.a && draw < w.b {
		k = -b.rInt
		for _, end := range w.ends {
			k -= int((end - draw - 1) >> 63) // 1 when end <= draw
		}
		return k, q - k*k, true
	}
	return 0, q, draw >= w.sum // pick's fallback offset, or out of range
}

// finish replaces the raw draws of a trial whose draw at coordinate last
// is above safe with its offset: the coordinates before last keep their
// raw draws, last completes rng.Int63n with finishInt63n, and the rest
// draw with int63n, so src takes exactly the draws a full walk of the
// trial takes. Every coordinate is walked, in range or not, because each
// total depends on the budget the coordinates before it leave. It reports
// whether the whole offset is in range.
func (b *ballSampler) finish(trial []int64, last int, lo, hi []int, src drawSource) bool {
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
			draw = finishInt63n(src, total, trial[i])
		default:
			draw = b.int63n(src, total)
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
func (b *ballSampler) int63n(src drawSource, n int64) int64 {
	v := src.Int63()
	if v <= b.safe {
		return v % n
	}
	return finishInt63n(src, n, v)
}

// finishInt63n completes rng.Int63n(n) whose first raw draw was v, with
// math/rand's exact semantics. A power-of-two n never redraws: 2^63 mod n
// is 0.
func finishInt63n(src drawSource, n, v int64) int64 {
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	for v > limit {
		v = src.Int63()
	}
	return v % n
}
