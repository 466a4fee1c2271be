package active

import (
	"fmt"

	"repro/internal/space"
)

// SampleState is the serializable form of Sample: the knob indices of the
// configuration plus the measurement. Indices (not flat codes) keep the
// encoding self-describing and validatable against the space on restore;
// GFLOPS round-trips bit-exactly through JSON (Go emits the shortest form
// that parses back to the same float64).
type SampleState struct {
	Config []int   `json:"config"`
	GFLOPS float64 `json:"gflops"`
	Valid  bool    `json:"valid"`
}

// SamplesToState converts measured samples to their serializable form.
func SamplesToState(samples []Sample) []SampleState {
	out := make([]SampleState, len(samples))
	for i, s := range samples {
		out[i] = SampleState{
			Config: append([]int(nil), s.Config.Index...),
			GFLOPS: s.GFLOPS,
			Valid:  s.Valid,
		}
	}
	return out
}

// SamplesFromState rebinds serialized samples to the space, validating
// every configuration.
func SamplesFromState(sp *space.Space, st []SampleState) ([]Sample, error) {
	out := make([]Sample, len(st))
	for i, s := range st {
		c, err := sp.FromIndices(s.Config)
		if err != nil {
			return nil, fmt.Errorf("active: sample %d: %w", i, err)
		}
		out[i] = Sample{Config: c, GFLOPS: s.GFLOPS, Valid: s.Valid}
	}
	return out, nil
}

// BAOState is the serializable state of a BAORun at a Step boundary:
// Algorithm 4's own counters and nothing else. The observations are the
// driver's and are snapshotted there; the parameters come from the
// restoring driver, as for a fresh run. Snapshots from older versions
// carried the samples, parameters, incumbent index and the whole
// best-so-far trace as well; decoding ignores the extra fields and
// RestoreBAORun keeps only the trace's last two values.
type BAOState struct {
	T            int       `json:"t"`
	SinceImprove int       `json:"since_improve"`
	BestTrace    []float64 `json:"best_trace"`
}

// State captures the run at a Step boundary. Restoring through
// RestoreBAORun and continuing over the same ledger with the same RNG
// stream is bit-identical to never having stopped.
func (r *BAORun) State() BAOState {
	return BAOState{T: r.t, SinceImprove: r.sinceImprove, BestTrace: append([]float64(nil), r.bestTrace...)}
}

// RestoreBAORun rebuilds a run from a State captured on the same search
// space. The trainer and parameters are supplied fresh (trainers are pure
// functions of their arguments and carry no run state).
func RestoreBAORun(sp *space.Space, tr EvalTrainer, p BAOParams, st BAOState) (*BAORun, error) {
	trace := st.BestTrace
	if len(trace) == 0 {
		return nil, fmt.Errorf("active: restore BAO run: empty best trace")
	}
	if len(trace) > 2 {
		trace = trace[len(trace)-2:]
	}
	return &BAORun{
		sp:           sp,
		tr:           tr,
		p:            p.normalized(),
		t:            st.T,
		sinceImprove: st.SinceImprove,
		bestTrace:    append([]float64(nil), trace...),
	}, nil
}
