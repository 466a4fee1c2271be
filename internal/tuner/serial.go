package tuner

import (
	"encoding/json"
	"fmt"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/rng"
)

// SessionStateVersion is the schema version stamped into every snapshot.
// A restoring Open rejects snapshots from a different version rather than
// guessing at field semantics.
const SessionStateVersion = 1

// SampleState is the serializable form of one measured sample (aliased
// from internal/active, where Sample lives).
type SampleState = active.SampleState

// BaseState is the part of a snapshot shared by every tuner: the seed the
// run was opened with, the counted RNG state, and every sample recorded so
// far in measurement order. The visited set, best-so-far value, and
// early-stopping counters are deliberately absent — they are pure
// functions of (Options.Resume, Samples) and are replayed on restore, so
// a snapshot cannot go internally inconsistent.
type BaseState struct {
	Seed    int64         `json:"seed"`
	RNG     rng.State     `json:"rng"`
	Samples []SampleState `json:"samples"`
	// StepDone records that the step loop had already reported done (the
	// session was complete but not yet finalized when snapshotted).
	StepDone bool `json:"step_done,omitempty"`
}

// SessionState is a complete session snapshot, taken at a Step boundary
// by Session.Snapshot and turned back into a live Session by Tuner.Open.
// It deliberately excludes the ambient run inputs — task definition,
// backend, Options (including resumed samples and the transfer handle) —
// which the restoring caller must supply exactly as it would to a fresh
// Open; the snapshot carries the seed and task name so mismatches fail
// loudly instead of silently diverging.
type SessionState struct {
	Version int    `json:"version"`
	Tuner   string `json:"tuner"`
	Task    string `json:"task"`
	// Base is the shared measurement state.
	Base BaseState `json:"base"`
	// Extra is the tuner-specific search state (sweep position, init
	// flag, BAO iteration state), schema'd per tuner name.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// baseState captures the shared session state.
func (s *session) baseState() BaseState {
	return BaseState{
		Seed:    s.opts.Seed,
		RNG:     s.src.State(),
		Samples: active.SamplesToState(s.samples),
	}
}

// openSession builds the shared session for a fresh Open (st == nil) or a
// restoring one. opts must already be normalized. The backend must be
// seeded: every measurement draws its noise from (run seed, config), which
// is what makes batches worker-count invariant and snapshots resumable. On
// restore the recorded samples are replayed — visited set, best-so-far,
// and early-stopping state are recomputed exactly as the original run
// computed them — and the RNG resumes mid-stream from its counted state.
func openSession(tunerName string, task *Task, b backend.Backend, opts Options, st *SessionState) (*session, error) {
	if !b.Seeded() {
		return nil, fmt.Errorf("tuner: %s on task %s: backend %s is not seeded", tunerName, task.Name, b.Name())
	}
	s := newSession(task, b, opts)
	if st == nil {
		return s, nil
	}
	if st.Version != SessionStateVersion {
		return nil, fmt.Errorf("tuner: restore %s: snapshot version %d, want %d", tunerName, st.Version, SessionStateVersion)
	}
	if st.Tuner != tunerName {
		return nil, fmt.Errorf("tuner: restore %s: snapshot belongs to tuner %q", tunerName, st.Tuner)
	}
	if st.Task != task.Name {
		return nil, fmt.Errorf("tuner: restore %s: snapshot belongs to task %q, not %q", tunerName, st.Task, task.Name)
	}
	if st.Base.Seed != opts.Seed {
		return nil, fmt.Errorf("tuner: restore %s: snapshot seed %d, options seed %d", tunerName, st.Base.Seed, opts.Seed)
	}
	samples, err := active.SamplesFromState(task.Space, st.Base.Samples)
	if err != nil {
		return nil, fmt.Errorf("tuner: restore %s: %w", tunerName, err)
	}
	s.src = rng.FromState(st.Base.RNG)
	for _, smp := range samples {
		s.replay(smp)
	}
	return s, nil
}

// replay re-applies one previously recorded sample: the same state
// transitions as record, minus the observer callback (the sample was
// already observed by the original run) and the phase accounting.
func (s *session) replay(smp active.Sample) {
	s.visited[smp.Config.Flat()] = true
	s.samples = append(s.samples, smp)
	if smp.Valid && smp.GFLOPS > s.bestG {
		s.bestG = smp.GFLOPS
		s.since = 0
	} else {
		s.since++
	}
	if s.opts.EarlyStop > 0 && s.since >= s.opts.EarlyStop {
		s.done = true
	}
}

// unmarshalExtra decodes the tuner-specific state into v; a nil snapshot
// or empty Extra leaves v at its zero value (a fresh open).
func unmarshalExtra(st *SessionState, v any) error {
	if st == nil || len(st.Extra) == 0 {
		return nil
	}
	if err := json.Unmarshal(st.Extra, v); err != nil {
		return fmt.Errorf("tuner: restore: decode extra state: %w", err)
	}
	return nil
}

// Per-tuner extra state. Every struct here is the complete search state
// the step closure keeps outside the shared session.
type (
	// gridState is the sweep position of GridTuner.
	gridState struct {
		I uint64 `json:"i"`
	}
	// initedState marks that the one-time initialization batch has run
	// (GATuner, ModelTuner, ChameleonTuner). Model artifacts are not
	// state: they are retrained from the samples every round.
	initedState struct {
		Inited bool `json:"inited"`
	}
	// advancedState is AdvancedTuner's state: the init flag plus BAO's
	// iteration counters (nil until the init step has run, and again nil
	// when init decided the run was already over).
	advancedState struct {
		Inited bool             `json:"inited"`
		BAO    *active.BAOState `json:"bao,omitempty"`
	}
)
