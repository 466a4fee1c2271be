package sa

import (
	"math/rand"
	"testing"

	"repro/internal/space"
)

// gridSpace is a simple 3-knob space for objective tests.
func gridSpace() *space.Space {
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	return space.New(
		space.NewEnumKnob("a", vals...),
		space.NewEnumKnob("b", vals...),
		space.NewEnumKnob("c", vals...),
	)
}

// rescore is the full-rescore oracle of the DeltaObjective protocol: it
// ignores the delta hints and scores every batch from scratch, counting the
// calls it receives.
type rescore struct {
	f                      func([]space.Config) []float64
	inits, rounds, commits int
}

func (r *rescore) InitBatch(points []space.Config) []float64 {
	r.inits++
	return r.f(points)
}

func (r *rescore) ProposeBatch(proposals []space.Config, _ []int) []float64 {
	r.rounds++
	return r.f(proposals)
}

func (r *rescore) Commit(int) { r.commits++ }

// peakObj is peakObjective as a full-rescore objective.
func peakObj() *rescore { return &rescore{f: peakObjective} }

// peakObjective is maximized at a=15, b=5, c=10.
func peakObjective(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		a := float64(c.Index[0]) - 15
		b := float64(c.Index[1]) - 5
		cc := float64(c.Index[2]) - 10
		out[i] = -(a*a + b*b + cc*cc)
	}
	return out
}

func TestFindMaximaFindsPeak(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(1))
	got := FindMaxima(sp, peakObj(), 5, nil, rng)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	best := got[0]
	if best.Index[0] != 15 || best.Index[1] != 5 || best.Index[2] != 10 {
		t.Fatalf("best = %v, want peak (15,5,10)", best.Index)
	}
	// Best-first ordering.
	scores := peakObjective(got)
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("results not sorted best-first: %v", scores)
		}
	}
}

func TestFindMaximaDistinct(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(2))
	got := FindMaxima(sp, peakObj(), 20, nil, rng)
	seen := make(map[uint64]bool)
	for _, c := range got {
		f := c.Flat()
		if seen[f] {
			t.Fatal("duplicate result")
		}
		seen[f] = true
	}
}

func TestFindMaximaExcludes(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(3))
	peak, err := sp.FromIndices([]int{15, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	exclude := map[uint64]bool{peak.Flat(): true}
	got := FindMaxima(sp, peakObj(), 5, exclude, rng)
	for _, c := range got {
		if c.Flat() == peak.Flat() {
			t.Fatal("excluded config returned")
		}
	}
}

func TestFindMaximaZeroK(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(4))
	if got := FindMaxima(sp, peakObj(), 0, nil, rng); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestFindMaximaBeatsRandomSearch(t *testing.T) {
	// On the same evaluation budget, SA should reach a better objective
	// value than pure random sampling (averaged over repeats). The space
	// has 20^6 points, so the budget covers under 0.02% of it.
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	var knobs []space.Knob
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		knobs = append(knobs, space.NewEnumKnob(name, vals...))
	}
	sp := space.New(knobs...)
	obj := func(batch []space.Config) []float64 {
		out := make([]float64, len(batch))
		for i, c := range batch {
			for k, v := range c.Index {
				d := float64(v - 3*k)
				out[i] -= d * d
			}
		}
		return out
	}
	budget := walkers * (iters + 1)
	saWins := 0
	rounds := 10
	for r := 0; r < rounds; r++ {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		saBest := obj(FindMaxima(sp, &rescore{f: obj}, 1, nil, rng))[0]
		rng2 := rand.New(rand.NewSource(int64(200 + r)))
		randBest := -1e18
		for i := 0; i < budget; i++ {
			v := obj([]space.Config{sp.Random(rng2)})[0]
			if v > randBest {
				randBest = v
			}
		}
		if saBest >= randBest {
			saWins++
		}
	}
	if saWins < 7 {
		t.Fatalf("SA won only %d/%d rounds against random search", saWins, rounds)
	}
}

// TestFindMaximaProtocol pins the objective protocol: one InitBatch, one
// ProposeBatch per annealing step, and a Commit for every accepted
// proposal; two runs from the same seed return the same candidates.
func TestFindMaximaProtocol(t *testing.T) {
	sp := gridSpace()
	for seed := int64(0); seed < 3; seed++ {
		a, b := peakObj(), peakObj()
		want := FindMaxima(sp, a, 8, nil, rand.New(rand.NewSource(seed)))
		got := FindMaxima(sp, b, 8, nil, rand.New(rand.NewSource(seed)))
		if len(want) != 8 || len(got) != len(want) {
			t.Fatalf("seed %d: %d and %d candidates, want 8", seed, len(want), len(got))
		}
		for i := range want {
			if want[i].Flat() != got[i].Flat() {
				t.Fatalf("seed %d: candidate %d differs between runs", seed, i)
			}
		}
		if a.inits != 1 || a.rounds != iters {
			t.Fatalf("seed %d: %d inits / %d proposal rounds, want 1 / %d", seed, a.inits, a.rounds, iters)
		}
		if a.commits == 0 || a.commits != b.commits {
			t.Fatalf("seed %d: %d and %d commits", seed, a.commits, b.commits)
		}
	}
}

func TestMutateChangesOneKnob(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(5))
	c := sp.Random(rng)
	for i := 0; i < 100; i++ {
		m, ki := mutate(sp, c, rng)
		diff := 0
		for k := range m.Index {
			if m.Index[k] != c.Index[k] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("mutation changed %d knobs", diff)
		}
		if ki < 0 || m.Index[ki] == c.Index[ki] {
			t.Fatalf("reported knob %d does not match the mutation", ki)
		}
	}
}

func TestMutateSingleOptionKnobs(t *testing.T) {
	// A space where every knob has one option cannot be mutated; mutate
	// must terminate, return a copy, and report no knob changed.
	sp := space.New(space.NewEnumKnob("only", 3))
	rng := rand.New(rand.NewSource(6))
	c := sp.Random(rng)
	m, ki := mutate(sp, c, rng)
	if !m.Equal(c) {
		t.Fatal("immutable space should return unchanged copy")
	}
	if ki != -1 {
		t.Fatalf("degenerate mutation reported knob %d, want -1", ki)
	}
}

// TestFindMaximaDegenerateSpace is the regression test for the
// no-mutable-knob stall: on a space where every knob has one option, the
// annealer must score the single point once and bail out instead of
// re-offering the unmutated clone for Iters rounds.
func TestFindMaximaDegenerateSpace(t *testing.T) {
	sp := space.New(space.NewEnumKnob("a", 7), space.NewEnumKnob("b", 1))
	obj := &rescore{f: func(batch []space.Config) []float64 {
		out := make([]float64, len(batch))
		for i := range out {
			out[i] = 1
		}
		return out
	}}
	rng := rand.New(rand.NewSource(8))
	got := FindMaxima(sp, obj, 5, nil, rng)
	if len(got) != 1 {
		t.Fatalf("one-point space returned %d configs", len(got))
	}
	if obj.inits != 1 || obj.rounds != 0 {
		t.Fatalf("objective called %d/%d times on a degenerate space, want 1/0 (init only)", obj.inits, obj.rounds)
	}
}

func TestFindMaximaSmallSpace(t *testing.T) {
	// k larger than the whole space: return everything reachable.
	sp := space.New(space.NewEnumKnob("a", 0, 1), space.NewEnumKnob("b", 0, 1))
	rng := rand.New(rand.NewSource(7))
	got := FindMaxima(sp, &rescore{f: peakObjectiveSmall}, 100, nil, rng)
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("got %d results from a 4-point space", len(got))
	}
}

func peakObjectiveSmall(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		out[i] = float64(c.Index[0] + c.Index[1])
	}
	return out
}

// mutate returns a copy of c with one random knob reassigned to a random
// different option, plus the index of the knob it changed (-1 when four
// attempts only drew knobs with fewer than two options and the copy is
// unchanged) — mutateIdx on a fresh copy.
func mutate(sp *space.Space, c space.Config, rng *rand.Rand) (space.Config, int) {
	lens, _ := knobRadix(sp)
	m := c.Clone()
	return m, mutateIdx(lens, m, rng)
}
