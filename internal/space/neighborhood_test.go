package space

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestLatticeBallCount(t *testing.T) {
	// 1-D radius 3: {-3..3} = 7 points.
	if got := latticeBallCount(1, 9); got != 7 {
		t.Fatalf("1-D count = %d, want 7", got)
	}
	// 2-D radius 1: origin + 4 axis neighbors = 5.
	if got := latticeBallCount(2, 1); got != 5 {
		t.Fatalf("2-D r=1 count = %d, want 5", got)
	}
	// 2-D radius sqrt(2): 3x3 box = 9.
	if got := latticeBallCount(2, 2); got != 9 {
		t.Fatalf("2-D r2=2 count = %d, want 9", got)
	}
	// Brute force cross-check in 3-D, r=2.5.
	r2 := 2.5 * 2.5
	want := int64(0)
	for a := -2; a <= 2; a++ {
		for b := -2; b <= 2; b++ {
			for c := -2; c <= 2; c++ {
				if float64(a*a+b*b+c*c) <= r2 {
					want++
				}
			}
		}
	}
	if got := latticeBallCount(3, r2); got != want {
		t.Fatalf("3-D count = %d, want %d", got, want)
	}
}

func TestNeighborhoodExact(t *testing.T) {
	s := New(
		NewEnumKnob("a", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		NewEnumKnob("b", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
	)
	center, _ := s.FromIndices([]int{5, 5})
	src := rng.New(1)
	got := s.Neighborhood(center, 1.5, NeighborhoodOpts{MaxCandidates: 8192}, src)
	// r=1.5 in 2-D: offsets with d2 <= 2.25: the 8-neighborhood.
	if len(got) != 8 {
		t.Fatalf("neighborhood size = %d, want 8", len(got))
	}
	for _, c := range got {
		d := linalg.Dist(c.IndexVec(), center.IndexVec())
		if d > 1.5 || d == 0 {
			t.Fatalf("config at distance %v", d)
		}
	}
}

func TestNeighborhoodClamping(t *testing.T) {
	s := New(NewEnumKnob("a", 0, 1, 2), NewEnumKnob("b", 0, 1, 2))
	corner, _ := s.FromIndices([]int{0, 0})
	src := rng.New(1)
	got := s.Neighborhood(corner, 1.5, NeighborhoodOpts{MaxCandidates: 8192}, src)
	// Only offsets into the valid quadrant survive: (0,1),(1,0),(1,1).
	if len(got) != 3 {
		t.Fatalf("corner neighborhood = %d, want 3", len(got))
	}
}

func TestNeighborhoodExclude(t *testing.T) {
	s := New(NewEnumKnob("a", 0, 1, 2, 3, 4), NewEnumKnob("b", 0, 1, 2, 3, 4))
	center, _ := s.FromIndices([]int{2, 2})
	src := rng.New(1)
	all := s.Neighborhood(center, 1.0, NeighborhoodOpts{MaxCandidates: 8192}, src)
	if len(all) != 4 {
		t.Fatalf("r=1 neighborhood = %d, want 4", len(all))
	}
	ex := map[uint64]bool{all[0].Flat(): true}
	got := s.Neighborhood(center, 1.0, NeighborhoodOpts{MaxCandidates: 8192, Exclude: ex}, src)
	if len(got) != 3 {
		t.Fatalf("excluded neighborhood = %d, want 3", len(got))
	}
}

func TestNeighborhoodZeroRadius(t *testing.T) {
	s := testSpace()
	src := rng.New(1)
	if got := s.Neighborhood(s.FromFlat(0), 0, NeighborhoodOpts{MaxCandidates: 8192}, src); got != nil {
		t.Fatal("zero radius should return nil")
	}
	if got := s.Neighborhood(s.FromFlat(0), 2, NeighborhoodOpts{}, src); got != nil {
		t.Fatal("zero candidate cap should return nil")
	}
}

func TestNeighborhoodCap(t *testing.T) {
	s, err := ForWorkload(tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	center := s.Random(src.Rand())
	// Move the center inward so the ball is not mostly clipped.
	for i := range center.Index {
		if center.Index[i] == 0 {
			center.Index[i] = s.Knob(i).Len() / 2
		}
	}
	got := s.Neighborhood(center, 4.5, NeighborhoodOpts{MaxCandidates: 500}, src)
	if len(got) == 0 || len(got) > 500 {
		t.Fatalf("capped neighborhood size = %d", len(got))
	}
	seen := make(map[uint64]bool)
	for _, c := range got {
		f := c.Flat()
		if seen[f] {
			t.Fatal("duplicate candidate")
		}
		seen[f] = true
		if d := linalg.Dist(c.IndexVec(), center.IndexVec()); d > 4.5+1e-9 {
			t.Fatalf("candidate outside ball: %v", d)
		}
	}
}

func TestNeighborhoodLargeRadiusSampled(t *testing.T) {
	// 8 knobs with 1000 options each: the ball at r=4.5 is far larger than
	// the cap, exercising the rejection-sampling path.
	vals := make([]int, 1000)
	for i := range vals {
		vals[i] = i
	}
	knobs := make([]Knob, 8)
	for i := range knobs {
		knobs[i] = NewEnumKnob("k"+string(rune('a'+i)), vals...)
	}
	s := New(knobs...)
	idx := []int{500, 500, 500, 500, 500, 500, 500, 500}
	center, _ := s.FromIndices(idx)
	src := rng.New(3)
	got := s.Neighborhood(center, 4.5, NeighborhoodOpts{MaxCandidates: 1000}, src)
	if len(got) != 1000 {
		t.Fatalf("sampled neighborhood = %d, want 1000", len(got))
	}
	for _, c := range got {
		d := linalg.Dist(c.IndexVec(), center.IndexVec())
		if d > 4.5 || d == 0 {
			t.Fatalf("sampled candidate at distance %v", d)
		}
	}
}

func TestNeighborhoodDeterministicEnumeration(t *testing.T) {
	s := New(NewEnumKnob("a", 0, 1, 2, 3, 4, 5, 6), NewEnumKnob("b", 0, 1, 2, 3, 4, 5, 6))
	center, _ := s.FromIndices([]int{3, 3})
	a := s.Neighborhood(center, 2, NeighborhoodOpts{MaxCandidates: 8192}, rng.New(1))
	b := s.Neighborhood(center, 2, NeighborhoodOpts{MaxCandidates: 8192}, rng.New(99))
	if len(a) != len(b) {
		t.Fatal("enumerated neighborhoods differ in size")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("enumerated neighborhood should be rng-independent")
		}
	}
}

func TestNeighborhoodGrowth(t *testing.T) {
	// Enlarging the radius tau*R must not shrink the candidate set
	// (the adaptive step of Algorithm 4 relies on this).
	s, err := ForWorkload(tensor.DepthwiseConv2D(1, 128, 56, 56, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	center := s.Random(src.Rand())
	small := s.Neighborhood(center, 3, NeighborhoodOpts{MaxCandidates: math.MaxInt32}, src)
	large := s.Neighborhood(center, 4.5, NeighborhoodOpts{MaxCandidates: math.MaxInt32}, src)
	if len(large) < len(small) {
		t.Fatalf("tau*R ball (%d) smaller than R ball (%d)", len(large), len(small))
	}
}

// BenchmarkNeighborhoodSampled times one sampled BAO step's search scope:
// the radius-4.5 ball of an 8-knob conv2d space, capped at the 2048
// candidates BAO asks for. The random center keeps about 1,870 of the
// 65,536 trials, so its chunks shrink toward the cap; the corner center,
// at the low end of the three split knobs, keeps 678, about what BAO's
// incumbents keep, so its chunks stay long.
func BenchmarkNeighborhoodSampled(b *testing.B) {
	s, err := ForWorkload(tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	if s.NumKnobs() != 8 {
		b.Fatalf("conv2d space has %d knobs, want 8", s.NumKnobs())
	}
	src := rng.New(3)
	random := s.Random(src.Rand())
	corner, err := s.FromIndices([]int{0, 0, 0, 3, 0, 1, 1, 0})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		center Config
	}{{"random-center", random}, {"corner-center", corner}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Neighborhood(bc.center, 4.5, NeighborhoodOpts{MaxCandidates: 2048}, src)
			}
		})
	}
}
