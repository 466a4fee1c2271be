package space_test

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
)

// ExampleForWorkload shows how a workload's schedule template expands into
// a configuration space.
func ExampleForWorkload() {
	w := tensor.Conv2D(1, 64, 56, 56, 64, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		panic(err)
	}
	fmt.Println("knobs:", sp.NumKnobs())
	fmt.Println("size:", sp.Size())
	// Output:
	// knobs: 8
	// size: 90316800
}

// ExampleSpace_FromFlat demonstrates mixed-radix addressing.
func ExampleSpace_FromFlat() {
	sp := space.New(
		space.NewSplitKnob("tile", 8, 2), // 4 options
		space.NewEnumKnob("unroll", 0, 512),
	)
	c := sp.FromFlat(5)
	fmt.Println(c.Flat(), len(c.Index))
	// Output:
	// 5 2
}

// ExampleSpace_Neighborhood shows the lattice-ball searching scope used by
// the paper's BAO.
func ExampleSpace_Neighborhood() {
	sp := space.New(
		space.NewEnumKnob("a", 0, 1, 2, 3, 4, 5, 6),
		space.NewEnumKnob("b", 0, 1, 2, 3, 4, 5, 6),
	)
	center, _ := sp.FromIndices([]int{3, 3})
	src := rng.New(1)
	nb := sp.Neighborhood(center, 1.5, space.NeighborhoodOpts{MaxCandidates: 8192}, src)
	fmt.Println("neighbors:", len(nb))
	// Output:
	// neighbors: 8
}
