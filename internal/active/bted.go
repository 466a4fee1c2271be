package active

import (
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/space"
)

// btedMu is the paper's TED normalization coefficient mu.
const btedMu = 0.1

// BTEDParams configures batch transductive experimental design
// (Algorithm 2). The paper's experimental settings are the defaults:
// (mu=0.1, fixed as btedMu; M=500, m=64, B=10).
type BTEDParams struct {
	M  int // random points drawn per batch
	M0 int // points TED selects per batch and finally (paper's m)
	B  int // number of batches
	// View selects the embedding for distances (default ViewKnobValues).
	View FeatureView
	// Kernel builds K_VV; nil means RBF with gamma = 1/featureDim.
	Kernel linalg.Kernel
}

// DefaultBTEDParams returns the paper's experimental settings.
func DefaultBTEDParams() BTEDParams {
	return BTEDParams{M: 500, M0: 64, B: 10}
}

func (p BTEDParams) normalized(featDim int) BTEDParams {
	if p.M <= 0 {
		p.M = 500
	}
	if p.M0 <= 0 {
		p.M0 = 64
	}
	if p.B <= 0 {
		p.B = 10
	}
	if p.Kernel == nil {
		g := 1.0
		if featDim > 0 {
			g = 1.0 / float64(featDim)
		}
		p.Kernel = linalg.RBFKernel{Gamma: g}
	}
	return p
}

// BTED generates the diverse initial configuration set of Algorithm 2:
// B random batches of M configs are drawn from the space, TED selects M0
// representatives from each batch, and a final TED pass over the union
// returns the M0-point initialization set.
//
// The batch mechanism is what makes TED scale to spaces with 10^7..10^8
// points: the O(M^2) kernel work is bounded by the batch size, while the
// union across B independent random batches enlarges the effective random
// support from which the final set is distilled.
func BTED(sp *space.Space, p BTEDParams, rng *rand.Rand) []space.Config {
	p = p.normalized(sp.FeatureDim())
	seen := make(map[uint64]bool)
	var union []space.Config
	for b := 0; b < p.B; b++ {
		batch := sp.RandomSample(p.M, rng)
		picked := TEDConfigs(batch, btedMu, p.M0, p.View, p.Kernel)
		for _, c := range picked {
			f := c.Flat()
			if seen[f] {
				continue
			}
			seen[f] = true
			union = append(union, c)
		}
	}
	return TEDConfigs(union, btedMu, p.M0, p.View, p.Kernel)
}

// RandomInit draws the AutoTVM-style random initialization set of the same
// size, used as the baseline against BTED.
func RandomInit(sp *space.Space, m int, rng *rand.Rand) []space.Config {
	return sp.RandomSample(m, rng)
}
