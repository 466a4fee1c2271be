package space

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The full-walk sampler below draws every trial's whole offset with
// rng.Int63n, one trial at a time, before checking it against the knob
// ranges. It is the reference the chunked, parallel sampleBall must match
// draw for draw at every worker count.

// sample fills offset with a uniform draw from the ball (including the
// origin; callers filter the zero offset).
func (b *ballSampler) sample(offset []int, rng *rand.Rand) {
	q := b.q
	for i := 0; i < b.dim; i++ {
		rem := b.dim - i - 1
		// Total completions over all k choices equals cum[rem+1][q]
		// (exactly, absent count clamping).
		total := b.cum[rem+1][q]
		draw := rng.Int63n(total)
		assigned := false
		for k := -b.rInt; k <= b.rInt; k++ {
			nn := q - k*k
			if nn < 0 {
				continue
			}
			w := b.cum[rem][nn]
			if draw < w {
				offset[i] = k
				q = nn
				assigned = true
				break
			}
			draw -= w
		}
		if !assigned {
			offset[i] = 0
		}
	}
}

// sampleBallFullWalk draws every trial's offset in full, then rejects it.
func (s *Space) sampleBallFullWalk(center Config, radius float64, maxCand int, exclude map[uint64]bool, rng *rand.Rand) []Config {
	out, _ := s.fullWalkTrials(center, radius, maxCand, exclude, rng)
	return out
}

// fullWalkTrials is sampleBallFullWalk that also returns, for every trial
// it ran, the number of configs kept before that trial.
func (s *Space) fullWalkTrials(center Config, radius float64, maxCand int, exclude map[uint64]bool, rng *rand.Rand) ([]Config, []int) {
	dim := len(s.knobs)
	bs := newBallSampler(dim, radius)
	seen := make(map[uint64]bool, maxCand)
	out := make([]Config, 0, maxCand)
	var kept []int
	maxTrials := maxCand * 32
	offset := make([]int, dim)
	for t := 0; t < maxTrials && len(out) < maxCand; t++ {
		kept = append(kept, len(out))
		bs.sample(offset, rng)
		idx := make([]int, dim)
		valid := true
		zero := true
		for i, k := range offset {
			if k != 0 {
				zero = false
			}
			v := center.Index[i] + k
			if v < 0 || v >= s.knobs[i].Len() {
				valid = false
				break
			}
			idx[i] = v
		}
		if !valid || zero {
			continue
		}
		c := Config{space: s, Index: idx}
		f := c.Flat()
		if seen[f] || (exclude != nil && exclude[f]) {
			continue
		}
		seen[f] = true
		out = append(out, c)
	}
	return out, kept
}

// chunks returns the [start, end) trial ranges of the chunks sampleBall
// cuts for a call whose rng never draws above the one-draw bound, from
// the oracle's kept counts: a chunk starting at trial t holds
// min(maxTrials-t, maxCand-kept[t]) trials.
func (s *Space) chunks(center Config, radius float64, maxCand int, exclude map[uint64]bool, seed int64) [][2]int {
	_, kept := s.fullWalkTrials(center, radius, maxCand, exclude, rand.New(rand.NewSource(seed)))
	var out [][2]int
	for t := 0; t < len(kept); {
		n := min(maxCand*32-t, maxCand-kept[t])
		out = append(out, [2]int{t, t + n})
		t += n
	}
	return out
}

// injectSource is a seeded source that replaces about one value in every
// `every` with one from the top maxTotal values of [0, 2^63): above the
// early-exit sampler's one-draw bound, and often above Int63n's own
// rejection bound, so both of int63n's slow paths run.
type injectSource struct {
	base, pick rand.Source
	every      int64
	maxTotal   int64
}

func (s *injectSource) Int63() int64 {
	v := s.base.Int63()
	if s.pick.Int63()%s.every == 0 {
		return math.MaxInt64 - v%s.maxTotal
	}
	return v
}

func (s *injectSource) Seed(seed int64) { s.base.Seed(seed) }

// scriptSource yields its script, then a seeded stream.
type scriptSource struct {
	script []int64
	base   rand.Source
}

func (s *scriptSource) Int63() int64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.base.Int63()
}

func (s *scriptSource) Seed(seed int64) { s.base.Seed(seed) }

// posSource is a seeded source whose draws at the given positions (counted
// from 0) are replaced.
type posSource struct {
	base rand.Source
	at   map[int]int64
	n    int
}

func (s *posSource) Int63() int64 {
	v := s.base.Int63()
	if r, ok := s.at[s.n]; ok {
		v = r
	}
	s.n++
	return v
}

func (s *posSource) Seed(seed int64) { s.base.Seed(seed) }

// countedSource is a raw stream that both the full-walk oracle (through
// rand.New) and sampleBall (as its drawSource) can draw from, and that
// counts its draws in State().N: a seeded *rng.Source, or a testSource.
type countedSource interface {
	drawSource
	rand.Source
	State() rng.State
}

// testSource puts a scripted or injected rand.Source behind sampleBall's
// drawSource: FillUntil is the loop of Int63 calls it stands for. It
// counts the values drawn.
type testSource struct {
	rand.Source
	n uint64
}

func (s *testSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

func (s *testSource) FillUntil(buf []int64, limit int64) int {
	for i := range buf {
		buf[i] = s.Int63()
		if buf[i] > limit {
			return i
		}
	}
	return len(buf)
}

func (s *testSource) State() rng.State { return rng.State{N: s.n} }

// widths are the worker counts every sampleBall equivalence check runs at.
var widths = []int{1, 2, 4}

// requireSameSample runs the full-walk oracle and, at every worker count
// in widths, sampleBall, each on a source built by newSrc, and requires
// the same configs, the same draw count and the same next draw. It
// returns the number of configs.
func requireSameSample(t *testing.T, name string, s *Space, center Config, radius float64, maxCand int, exclude map[uint64]bool, newSrc func() countedSource) int {
	t.Helper()
	oracle := newSrc()
	want := s.sampleBallFullWalk(center, radius, maxCand, exclude, rand.New(oracle))
	wantN := oracle.State().N
	wantNext := oracle.Int63()
	for _, w := range widths {
		src := newSrc()
		got := s.sampleBall(center, radius, maxCand, exclude, src, w)
		if len(got) != len(want) {
			t.Fatalf("%s, %d workers: %d configs, full walk %d", name, w, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) || got[i].space != s {
				t.Fatalf("%s, %d workers: config %d is %v, full walk %v", name, w, i, got[i].Index, want[i].Index)
			}
		}
		if n := src.State().N; n != wantN {
			t.Fatalf("%s, %d workers: %d draws, full walk %d", name, w, n, wantN)
		}
		if g := src.Int63(); g != wantNext {
			t.Fatalf("%s, %d workers: next draw %d, full walk %d: the draw counts differ", name, w, g, wantNext)
		}
	}
	return len(want)
}

type namedCenter struct {
	name string
	c    Config
}

// testCenters returns corner, far-corner, edge, middle and random centers.
func testCenters(s *Space, rng *rand.Rand) []namedCenter {
	dim := s.NumKnobs()
	corner := make([]int, dim)
	far := make([]int, dim)
	edge := make([]int, dim)
	mid := make([]int, dim)
	for i := 0; i < dim; i++ {
		n := s.Knob(i).Len()
		far[i] = n - 1
		mid[i] = n / 2
		if i%2 == 1 {
			edge[i] = n - 1
		} else {
			edge[i] = n / 2
		}
	}
	out := []namedCenter{{"random", s.Random(rng)}}
	for _, nc := range []struct {
		name string
		idx  []int
	}{{"corner", corner}, {"far", far}, {"edge", edge}, {"middle", mid}} {
		c, err := s.FromIndices(nc.idx)
		if err != nil {
			panic(err)
		}
		out = append(out, namedCenter{nc.name, c})
	}
	return out
}

func seeded(seed int64) func() countedSource {
	return func() countedSource { return rng.New(seed) }
}

func injected(seed, maxTotal int64) func() countedSource {
	return func() countedSource {
		return &testSource{Source: &injectSource{base: rand.NewSource(seed), pick: rand.NewSource(^seed), every: 5, maxTotal: maxTotal}}
	}
}

// excludeSome excludes every third config of an unexcluded sample.
func excludeSome(s *Space, center Config, radius float64) map[uint64]bool {
	ex := map[uint64]bool{}
	for i, c := range s.sampleBallFullWalk(center, radius, 64, nil, rand.New(rand.NewSource(5))) {
		if i%3 == 0 {
			ex[c.Flat()] = true
		}
	}
	return ex
}

func TestSampleBallMatchesFullWalkMobileNet(t *testing.T) {
	tasks := graph.ExtractTasks(graph.MobileNetV1(), graph.ConvOnly)
	if len(tasks) == 0 {
		t.Fatal("no mobilenet-v1 conv tasks")
	}
	rnd := rand.New(rand.NewSource(11))
	n, full, short := 0, 0, 0
	for ti, task := range tasks {
		s, err := ForWorkload(task.Workload)
		if err != nil {
			t.Fatal(err)
		}
		for ci, nc := range testCenters(s, rnd) {
			center := nc.c
			for ri, radius := range []float64{3, 4.5} {
				n++
				seed := int64(100*ti + 10*ri + ci)
				var ex map[uint64]bool
				if n%2 == 0 {
					ex = excludeSome(s, center, radius)
				}
				// A cap of 16 ends most calls on len(out); 128 mostly on
				// the trial budget; 1024 walks chunks of several blocks.
				maxCand := 16
				if n%3 == 0 {
					maxCand = 128
				}
				if n%7 == 0 {
					maxCand = 1024
				}
				name := task.Name + "/" + nc.name
				if requireSameSample(t, name, s, center, radius, maxCand, ex, seeded(seed)) == maxCand {
					full++
				} else {
					short++
				}
				maxTotal := latticeBallCount(s.NumKnobs(), radius*radius)
				requireSameSample(t, name+"/injected", s, center, radius, maxCand, ex, injected(seed, maxTotal))
			}
		}
	}
	if full == 0 || short == 0 {
		t.Fatalf("%d calls filled the cap and %d ran out of trials; want both kinds", full, short)
	}
	// One step as BAO takes it: the full cap, through Neighborhood's switch.
	s, err := ForWorkload(tasks[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	center := testCenters(s, rnd)[4].c // middle
	requireSameSample(t, "cap-2048", s, center, 4.5, 2048, nil, seeded(3))
	want := s.sampleBallFullWalk(center, 4.5, 2048, nil, rand.New(rand.NewSource(3)))
	got := s.Neighborhood(center, 4.5, NeighborhoodOpts{MaxCandidates: 2048}, rng.New(3))
	if len(got) != len(want) {
		t.Fatalf("Neighborhood: %d configs, full walk %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Neighborhood: config %d differs from the full walk", i)
		}
	}
}

// tinyKnobSpace has Len-1 and Len-2 knobs, so most trials are rejected at
// their first coordinate and the skipped tail is long.
func tinyKnobSpace() *Space {
	return New(
		NewEnumKnob("a", 0),
		NewEnumKnob("b", 0, 1),
		NewEnumKnob("c", 0, 1, 2, 3, 4),
		NewEnumKnob("d", 0, 1),
		NewEnumKnob("e", 0),
		NewEnumKnob("f", 0, 1, 2, 3, 4, 5, 6),
		NewEnumKnob("g", 0, 1),
		NewEnumKnob("h", 0, 1, 2),
	)
}

func TestSampleBallMatchesFullWalkTinyKnobs(t *testing.T) {
	s := tinyKnobSpace()
	rnd := rand.New(rand.NewSource(12))
	for _, nc := range testCenters(s, rnd) {
		center := nc.c
		for _, radius := range []float64{1.5, 3, 4.5} {
			for _, ex := range []map[uint64]bool{nil, excludeSome(s, center, radius)} {
				for _, maxCand := range []int{4, 64} {
					name := nc.name
					requireSameSample(t, name, s, center, radius, maxCand, ex, seeded(int64(maxCand)))
					maxTotal := latticeBallCount(s.NumKnobs(), radius*radius)
					requireSameSample(t, name+"/injected", s, center, radius, maxCand, ex, injected(int64(maxCand), maxTotal))
				}
			}
		}
	}
}

// rawFor returns raw draws that make the first len(path) coordinates of a
// trial pick the offsets in path: draws below the ball's size are kept
// as-is by Int63n, so each is the start of k's block of completions.
func rawFor(b *ballSampler, path ...int) []int64 {
	q := b.q
	var out []int64
	for i, k := range path {
		rem := b.dim - i - 1
		var draw int64
		for kk := -b.rInt; kk < k; kk++ {
			if q-kk*kk >= 0 {
				draw += b.cum[rem][q-kk*kk]
			}
		}
		out = append(out, draw)
		q -= k * k
	}
	return out
}

// TestSampleBallScriptedDraws places raw values above the one-draw bound
// at known coordinates: in the walked prefix, at the first, a later and
// the last skipped coordinate, and where the coordinate's total is 1.
// Total 1 is the power-of-two case: for dim <= 8 and squared radius <= 40
// no lattice ball of more than one point has a power-of-two size.
func TestSampleBallScriptedDraws(t *testing.T) {
	s := tinyKnobSpace()
	// Knob a allows offset 0 only, so offset -R rejects at coordinate 0;
	// knob f allows -3..3.
	center, err := s.FromIndices([]int{0, 1, 2, 0, 0, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	const top = math.MaxInt64
	cat := func(parts ...[]int64) []int64 {
		var out []int64
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, radius := range []float64{3, 4.5} {
		bs := newBallSampler(8, radius)
		r := bs.rInt
		safe1 := bs.safe + 1 // above the bound, yet kept by every Int63n
		scripts := []struct {
			name   string
			script []int64
		}{
			{"prefix-top", []int64{top, top}},
			{"prefix-safe+1", []int64{safe1}},
			{"tail-first-top", cat(rawFor(bs, -r), []int64{top, 17})},
			{"tail-first-safe+1", cat(rawFor(bs, -r), []int64{safe1, 17})},
			{"tail-later-top", cat(rawFor(bs, -r), []int64{5, 12345, top, top, 8})},
			{"tail-later-safe+1", cat(rawFor(bs, -r), []int64{5, 12345, 77, safe1, 8})},
			{"tail-last-top", cat(rawFor(bs, -r), []int64{1, 2, 3, 4, 5, 6, top, 99})},
			{"replay-then-top", cat(rawFor(bs, -r, 0, 0, 0, 0, 0), []int64{top, safe1, top, 5})},
			// Budget 0 after offset -r (and -2 at radius 4.5): every
			// skipped total is 1.
			{"tail-total-one", cat(rawFor(bs, -r, -int(math.Sqrt(float64(bs.q-r*r)))), []int64{top, top, top, top, top, top, 42})},
			{"every-draw-top", []int64{top, top, top, top, top, top, top, top, top, top, top, top}},
			{"every-draw-safe+1", []int64{safe1, safe1, safe1, safe1, safe1, safe1, safe1, safe1}},
		}
		if radius == 3 {
			// Offset -3 on knob f spends the whole budget in range: the
			// walked coordinates g and h have total 1.
			scripts = append(scripts, struct {
				name   string
				script []int64
			}{"walked-total-one", cat(rawFor(bs, 0, 0, 0, 0, 0, -3), []int64{top, top, 42})})
		}
		for _, sc := range scripts {
			newSrc := func() countedSource {
				return &testSource{Source: &scriptSource{script: append([]int64(nil), sc.script...), base: rand.NewSource(9)}}
			}
			requireSameSample(t, sc.name, s, center, radius, 8, nil, newSrc)
		}
	}
	// A ball of one point: every total is 1, so Int63n masks and takes one
	// draw even for the largest raw value.
	one := func() countedSource {
		return &testSource{Source: &scriptSource{script: []int64{top, top, 0, top}, base: rand.NewSource(9)}}
	}
	requireSameSample(t, "radius-0.5", s, center, 0.5, 8, nil, one)
}

// wideSpace has eight Len-12 knobs: around its middle center every offset
// of the radius-4.5 ball is in range, so nearly every trial is kept.
func wideSpace() (*Space, Config) {
	knobs := make([]Knob, 8)
	idx := make([]int, 8)
	for i := range knobs {
		knobs[i] = NewEnumKnob(string(rune('a'+i)), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
		idx[i] = 6
	}
	s := New(knobs...)
	center, err := s.FromIndices(idx)
	if err != nil {
		panic(err)
	}
	return s, center
}

// requireUnsafeAt places raw values above the one-draw bound at the given
// (trial, coordinate) draws of a seeded stream, one position per call, and
// requires sampleBall to match the oracle at every width.
func requireUnsafeAt(t *testing.T, name string, s *Space, center Config, radius float64, maxCand int, exclude map[uint64]bool, seed int64, at [][2]int) {
	t.Helper()
	dim := s.NumKnobs()
	safe1 := newBallSampler(dim, radius).safe + 1
	for _, tc := range at {
		for _, v := range []int64{safe1, math.MaxInt64} {
			pos := tc[0]*dim + tc[1]
			newSrc := func() countedSource {
				return &testSource{Source: &posSource{base: rand.NewSource(seed), at: map[int]int64{pos: v}}}
			}
			requireSameSample(t, fmt.Sprintf("%s/trial-%d-coord-%d/%d", name, tc[0], tc[1], v), s, center, radius, maxCand, exclude, newSrc)
		}
	}
}

// TestSampleBallChunkEdges pins the chunk boundaries: raw values above the
// one-draw bound in the first and last trial of a chunk and at a trial's
// last coordinate, a chunk that ends the call exactly on its last trial
// with the cap reached, and a chunk shrunk to one trial.
func TestSampleBallChunkEdges(t *testing.T) {
	s := tinyKnobSpace()
	center := testCenters(s, rand.New(rand.NewSource(12)))[4].c // middle
	const seed, radius, maxCand = 21, 3.0, 64
	ch := s.chunks(center, radius, maxCand, nil, seed)
	if len(ch) < 3 || ch[1][1]-ch[1][0] < 3 {
		t.Fatalf("chunks %v: want at least three, the second of three or more trials", ch)
	}
	last := s.NumKnobs() - 1
	for k, c := range ch[:2] {
		first, end := c[0], c[1]-1
		requireUnsafeAt(t, fmt.Sprintf("chunk-%d", k), s, center, radius, maxCand, nil, seed,
			[][2]int{{first, 0}, {first, last}, {(first + end) / 2, last}, {end, 0}, {end, last}})
	}

	ws, wc := wideSpace()
	const wideSeed, wideCap = 4, 8
	full := ws.sampleBallFullWalk(wc, 4.5, wideCap, nil, rand.New(rand.NewSource(wideSeed)))
	if got := ws.chunks(wc, 4.5, wideCap, nil, wideSeed); len(full) != wideCap || len(got) != 1 || got[0] != [2]int{0, wideCap} {
		t.Fatalf("wide space: %d configs in chunks %v, want the cap in one chunk of %d trials", len(full), got, wideCap)
	}
	requireSameSample(t, "cap-in-one-chunk", ws, wc, 4.5, wideCap, nil, seeded(wideSeed))
	// Excluding the third config leaves the first chunk one short, so a
	// second chunk of one trial fills the cap.
	ex := map[uint64]bool{full[2].Flat(): true}
	ch = ws.chunks(wc, 4.5, wideCap, ex, wideSeed)
	if len(ch) != 2 || ch[1] != [2]int{wideCap, wideCap + 1} {
		t.Fatalf("wide space with one excluded config: chunks %v, want a second chunk of one trial", ch)
	}
	if n := requireSameSample(t, "cap-on-one-trial-chunk", ws, wc, 4.5, wideCap, ex, seeded(wideSeed)); n != wideCap {
		t.Fatalf("one-trial chunk kept %d configs, want %d", n, wideCap)
	}
	requireUnsafeAt(t, "one-trial-chunk", ws, wc, 4.5, wideCap, ex, wideSeed,
		[][2]int{{wideCap, 0}, {wideCap, last}, {wideCap - 1, last}})
}
