// Package sa implements the simulated-annealing optimizer AutoTVM uses to
// maximize its learned cost model over a schedule configuration space: a
// batch of walkers performs knob-mutation random walks under a decaying
// temperature while a top-k tracker collects the best unvisited
// configurations found anywhere along the walk.
//
// The objective learns which single knob each proposal changed relative to
// its walker's current point, and is told when a proposal is accepted —
// enough for an implementation to keep encoded feature rows and cached
// per-tree predictions and rescore each proposal incrementally (see
// internal/tuner's surrogate objective).
package sa

import (
	"container/heap"
	"math"
	"math/rand"

	"repro/internal/space"
)

// DeltaObjective scores configurations; higher is better. The annealer
// drives it through a strict protocol:
//
//  1. InitBatch scores the initial walker points from scratch.
//  2. Each round, ProposeBatch scores the proposal batch; proposals[i]
//     differs from walker i's current point at exactly knob changed[i]
//     (changed[i] < 0 means the proposal is an unchanged clone — a
//     degenerate mutation).
//  3. Commit(i) is called, before the walker's point is replaced, for
//     every accepted proposal: walker i's current point becomes
//     proposals[i] from the most recent ProposeBatch.
//
// Returned score slices are only read until the next call, so
// implementations may reuse one buffer.
type DeltaObjective interface {
	InitBatch(points []space.Config) []float64
	ProposeBatch(proposals []space.Config, changed []int) []float64
	Commit(i int)
}

// The annealing schedule, a scaled-down AutoTVM configuration (AutoTVM
// runs 128 walkers for 500 steps; the landscape here is
// smaller-dimensional): walkers anneal for iters steps while the
// temperature falls linearly from 1 towards 0.
const (
	walkers = 96
	iters   = 120
)

// scoredConfig pairs a config with its objective value in the top-k heap.
// The flat index rides along so evictions never re-derive it.
type scoredConfig struct {
	cfg   space.Config
	flat  uint64
	score float64
}

// minHeap keeps the k best entries with the worst on top.
type minHeap []scoredConfig

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(scoredConfig)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK tracks the k best distinct configurations seen, excluding flat
// indices in exclude (shared, read-only).
type topK struct {
	k       int
	h       minHeap
	exclude map[uint64]bool
}

func newTopK(k int, exclude map[uint64]bool) *topK {
	t := &topK{k: k, exclude: exclude}
	heap.Init(&t.h)
	return t
}

// contains reports whether flat index f is currently in the heap. k is
// small (the plan size), so a linear scan over the resident flats beats a
// side map with its hashing, insertion and eviction bookkeeping.
func (t *topK) contains(f uint64) bool {
	for i := range t.h {
		if t.h[i].flat == f {
			return true
		}
	}
	return false
}

// offer clones c before storing it: the annealing loop reuses walker
// buffers across iterations, so anything that outlives the call must own
// its Index. The clone only happens for entries that actually enter the
// heap. f must be c.Flat() — the annealing loop maintains walker flats
// incrementally (one knob changed means one stride added) instead of
// re-deriving the full mixed-radix product on every acceptance.
func (t *topK) offer(c space.Config, f uint64, s float64) {
	if t.h.Len() >= t.k && !(s > t.h[0].score) {
		// Can't displace the current worst: no membership test needed.
		// (Negated comparison so a NaN score is rejected here, exactly as
		// it would fail the displacement test below.)
		return
	}
	if t.contains(f) || (t.exclude != nil && t.exclude[f]) {
		return
	}
	if t.h.Len() < t.k {
		heap.Push(&t.h, scoredConfig{c.Clone(), f, s})
		return
	}
	heap.Pop(&t.h)
	heap.Push(&t.h, scoredConfig{c.Clone(), f, s})
}

// drain empties the tracker and returns its configurations best-first.
func (t *topK) drain() []space.Config {
	out := make([]space.Config, t.h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&t.h).(scoredConfig).cfg
	}
	return out
}

// FindMaxima anneals walkers over the space and returns up to k distinct
// configurations with the highest objective values, excluding flat indices
// present in exclude (typically the already-measured set; read-only during
// the call). Results are ordered best-first.
func FindMaxima(sp *space.Space, obj DeltaObjective, k int, exclude map[uint64]bool, rng *rand.Rand) []space.Config {
	if k <= 0 {
		return nil
	}
	lens, strides := knobRadix(sp)
	points := make([]space.Config, walkers)
	flats := make([]uint64, walkers)
	for i := range points {
		points[i] = sp.Random(rng)
		flats[i] = points[i].Flat()
	}
	scores := make([]float64, walkers)
	copy(scores, obj.InitBatch(points))

	top := newTopK(k, exclude)
	for i, c := range points {
		top.offer(c, flats[i], scores[i])
	}
	// A space where no knob has two options cannot be mutated: every
	// proposal would be an unchanged clone that passes the >= acceptance
	// test, burning iters objective batches on a single point. The initial
	// walkers are all there is.
	mutable := false
	for _, l := range lens {
		if l >= 2 {
			mutable = true
			break
		}
	}
	if !mutable {
		return top.drain()
	}

	// Proposal buffers are allocated once and reused every iteration; on
	// acceptance a walker swaps buffers with its proposal instead of
	// allocating. Anything that escapes the loop (topK entries) is cloned at
	// insertion, so reuse never aliases retained configs.
	proposals := make([]space.Config, walkers)
	for i := range proposals {
		proposals[i] = points[i].Clone()
	}
	changed := make([]int, walkers)
	for i := range changed {
		changed[i] = -1
	}
	propFlats := make([]uint64, walkers)
	propScores := make([]float64, walkers)
	for it := 0; it < iters; it++ {
		// Always > 0: the last step runs at temperature 1/iters.
		temp := 1 - float64(it)/iters
		for i, c := range points {
			// Loop invariant: proposals[i] differs from points[i] at most at
			// the knob it mutated last round (true after both accept — the
			// buffers swap — and reject), so one repair write re-syncs it
			// and a full Index copy is skipped.
			if pk := changed[i]; pk >= 0 {
				proposals[i].Index[pk] = c.Index[pk]
			}
			ki := mutateIdx(lens, proposals[i], rng)
			changed[i] = ki
			// One knob moved, so the proposal's flat index moves by that
			// knob's stride times the option delta — mod-2^64 arithmetic
			// reproduces Config.Flat exactly, negative deltas included.
			if ki >= 0 {
				delta := uint64(int64(proposals[i].Index[ki] - c.Index[ki]))
				propFlats[i] = flats[i] + delta*strides[ki]
			} else {
				propFlats[i] = flats[i]
			}
		}
		copy(propScores, obj.ProposeBatch(proposals, changed))
		for i := range points {
			accept := propScores[i] >= scores[i]
			if !accept {
				u := rng.Float64()
				x := (propScores[i] - scores[i]) / temp
				if x <= -44 {
					// Exp(x) < 2^-63, below the smallest nonzero Float64 the
					// generator emits, so the Metropolis test reduces to
					// u == 0 — same decision, same draw, no Exp call.
					accept = u == 0
				} else {
					accept = u < math.Exp(x)
				}
			}
			if accept {
				obj.Commit(i)
				points[i], proposals[i] = proposals[i], points[i]
				flats[i] = propFlats[i]
				scores[i] = propScores[i]
				top.offer(points[i], flats[i], scores[i])
			}
		}
	}
	return top.drain()
}

// knobRadix precomputes each knob's option count and mixed-radix stride
// (the amount Config.Flat changes per unit step of that knob), so the
// annealing loop neither re-queries knob interfaces nor re-derives full
// flat products per iteration.
func knobRadix(sp *space.Space) ([]int, []uint64) {
	n := sp.NumKnobs()
	lens := make([]int, n)
	strides := make([]uint64, n)
	stride := uint64(1)
	for i := n - 1; i >= 0; i-- {
		lens[i] = sp.Knob(i).Len()
		strides[i] = stride
		stride *= uint64(lens[i])
	}
	return lens, strides
}

// mutateIdx reassigns one random knob of dst to a random different option
// and returns that knob's index (-1 when four attempts only drew knobs
// with fewer than two options and dst is unchanged). lens holds the
// per-knob option counts of dst's space. The annealing loop calls it on a
// proposal buffer it has already re-synced to the walker's current point.
func mutateIdx(lens []int, dst space.Config, rng *rand.Rand) int {
	n := len(lens)
	for attempt := 0; attempt < 4; attempt++ {
		ki := rng.Intn(n)
		kl := lens[ki]
		if kl < 2 {
			continue
		}
		nv := rng.Intn(kl - 1)
		if nv >= dst.Index[ki] {
			nv++
		}
		dst.Index[ki] = nv
		return ki
	}
	return -1
}
