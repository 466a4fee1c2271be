// Package job owns the tuning-job lifecycle the CLIs used to re-implement
// by hand: a validated job description (Spec) with deterministic
// JobID → seed derivation, a crash-safe per-job directory store (Store), a
// runner that drives the core pipeline with streaming records and periodic
// checkpoints (Run), and a multi-tenant FIFO manager with live record
// fan-out (Manager). cmd/tune and cmd/repro are thin clients of this
// package; cmd/served exposes it as a long-running HTTP service.
//
// Determinism contract: a job's record stream is a pure function of its
// Spec and seed. The seed is either given explicitly or derived from the
// job ID (DeriveSeed), so resubmitting a job — or resuming it after a
// daemon crash — replays a bit-identical stream.
package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/tuner"
)

// Limits enforced by Validate. They bound what one job may ask of the
// service — large enough for paper-scale runs (budget 1024, runs 600),
// small enough that a single HTTP submission cannot pin a worker for days.
const (
	MaxBudget          = 1 << 20
	MaxPlanSize        = 1 << 16
	MaxRuns            = 1 << 20
	MaxWorkers         = 4096
	MaxTaskConcurrency = 1024
)

// Spec is a validated job description: every input that determines the
// job's record stream. Zero fields mean "use the default" (see Normalized);
// cmd/tune fills every field from its flags instead, so its behaviour is
// exactly what it was before the job layer existed.
//
// The field set deliberately excludes wall-clock controls (per-task
// deadlines): a served job must replay bit-identically, and deadline
// expiry depends on host load.
type Spec struct {
	// Model is the graph to tune (see graph.ModelNames). Required.
	Model string `json:"model"`
	// Tuner is the search strategy: autotvm | bted | bted+bao | random |
	// grid | ga | chameleon.
	Tuner string `json:"tuner,omitempty"`
	// Device is the simulated device name (see backend.Devices).
	Device string `json:"device,omitempty"`
	// Ops selects task extraction: "conv" or "all".
	Ops string `json:"ops,omitempty"`
	// Seed drives all randomness. 0 derives the seed from the job ID
	// (DeriveSeed), so a replayed submission is bit-identical.
	Seed int64 `json:"seed,omitempty"`
	// Budget is the measurement budget per task.
	Budget int `json:"budget,omitempty"`
	// EarlyStop ends a task after this many measurements without
	// improvement; negative disables early stopping.
	EarlyStop int `json:"early_stop,omitempty"`
	// PlanSize is the batch/initialization size (also the record-log flush
	// cadence).
	PlanSize int `json:"plan_size,omitempty"`
	// Runs is the end-to-end latency run count.
	Runs int `json:"runs,omitempty"`
	// Workers sizes the per-task measurement pool; 0 uses GOMAXPROCS.
	// Sample streams are Workers-invariant, so this is pure throughput.
	Workers int `json:"workers,omitempty"`
	// TaskConcurrency is how many tasks the graph scheduler tunes
	// concurrently (1: classic sequential pipeline).
	TaskConcurrency int `json:"task_concurrency,omitempty"`
	// BudgetPolicy is the scheduler budget policy: uniform | adaptive.
	BudgetPolicy string `json:"budget_policy,omitempty"`
	// CheckpointEvery is the minimum new measurements between checkpoint
	// frames (0: every scheduler boundary). Frame cadence only — the
	// record stream is unaffected.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// Normalized fills zero fields with cmd/tune's flag defaults, so a served
// Spec that only names a model produces exactly the stream
// `tune -model <m> -seed <derived>` would.
func (s Spec) Normalized() Spec {
	if s.Tuner == "" {
		s.Tuner = "bted+bao"
	}
	if s.Device == "" {
		s.Device = "gtx1080ti"
	}
	if s.Ops == "" {
		s.Ops = "all"
	}
	if s.Budget == 0 {
		s.Budget = 512
	}
	if s.EarlyStop == 0 {
		s.EarlyStop = 400
	}
	if s.PlanSize == 0 {
		s.PlanSize = 64
	}
	if s.Runs == 0 {
		s.Runs = 600
	}
	if s.TaskConcurrency == 0 {
		s.TaskConcurrency = 1
	}
	if s.BudgetPolicy == "" {
		s.BudgetPolicy = "uniform"
	}
	return s
}

// ErrBadSpec is wrapped by every validation failure — a malformed
// submission, an unknown name, an out-of-range knob, an unusable job ID —
// so transport layers can map the whole class to "client error" with one
// errors.Is.
var ErrBadSpec = errors.New("job: invalid spec")

// Validate rejects a spec the runner could not execute or that exceeds the
// service limits. It checks name membership (model, tuner, device, ops,
// policy) and numeric bounds; call it on a Normalized spec — zero values
// for required fields are errors, not defaults, here.
func (s Spec) Validate() error {
	if s.Model == "" {
		return fmt.Errorf("%w: spec has no model", ErrBadSpec)
	}
	if !slices.Contains(graph.ModelNames, s.Model) {
		return fmt.Errorf("%w: unknown model %q (have: %s)", ErrBadSpec, s.Model, strings.Join(graph.ModelNames, ", "))
	}
	if _, err := NewTuner(s.Tuner); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if _, err := backend.New(s.Device, 0); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if s.Ops != "conv" && s.Ops != "all" {
		return fmt.Errorf("%w: unknown ops %q (want conv or all)", ErrBadSpec, s.Ops)
	}
	if _, err := sched.PolicyByName(s.BudgetPolicy); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	switch {
	case s.Budget < 1 || s.Budget > MaxBudget:
		return fmt.Errorf("%w: budget %d out of range [1, %d]", ErrBadSpec, s.Budget, MaxBudget)
	case s.PlanSize < 1 || s.PlanSize > MaxPlanSize:
		return fmt.Errorf("%w: plan size %d out of range [1, %d]", ErrBadSpec, s.PlanSize, MaxPlanSize)
	case s.Runs < 1 || s.Runs > MaxRuns:
		return fmt.Errorf("%w: runs %d out of range [1, %d]", ErrBadSpec, s.Runs, MaxRuns)
	case s.Workers < 0 || s.Workers > MaxWorkers:
		return fmt.Errorf("%w: workers %d out of range [0, %d]", ErrBadSpec, s.Workers, MaxWorkers)
	case s.TaskConcurrency < 1 || s.TaskConcurrency > MaxTaskConcurrency:
		return fmt.Errorf("%w: task concurrency %d out of range [1, %d]", ErrBadSpec, s.TaskConcurrency, MaxTaskConcurrency)
	case s.EarlyStop > MaxBudget:
		return fmt.Errorf("%w: early stop %d exceeds %d", ErrBadSpec, s.EarlyStop, MaxBudget)
	case s.CheckpointEvery < 0 || s.CheckpointEvery > MaxBudget:
		return fmt.Errorf("%w: checkpoint cadence %d out of range [0, %d]", ErrBadSpec, s.CheckpointEvery, MaxBudget)
	}
	return nil
}

// Extract maps the Ops field to graph extraction options.
func (s Spec) Extract() graph.ExtractOpts {
	if s.Ops == "conv" {
		return graph.ConvOnly
	}
	return graph.AllOps
}

// NewTuner constructs a tuner by its CLI name — the one name→constructor
// table shared by cmd/tune, cmd/compare, the service, and perfbench.
func NewTuner(name string) (tuner.Tuner, error) {
	switch name {
	case "autotvm":
		return tuner.NewAutoTVM(), nil
	case "bted":
		return tuner.NewBTED(), nil
	case "bted+bao":
		return tuner.NewBTEDBAO(), nil
	case "random":
		return tuner.RandomTuner{}, nil
	case "grid":
		return tuner.GridTuner{}, nil
	case "ga":
		return tuner.GATuner{}, nil
	case "chameleon":
		return tuner.NewChameleon(), nil
	default:
		return nil, fmt.Errorf("unknown tuner %q", name)
	}
}

// Submit is the wire form of a job submission: an optional caller-chosen ID
// plus the spec. An empty ID gets the deterministic SpecID of the
// normalized spec, which makes identical resubmissions collide loudly
// instead of silently duplicating work.
type Submit struct {
	ID string `json:"id,omitempty"`
	Spec
}

// MaxSubmitBytes caps the submission body DecodeSubmit will read.
const MaxSubmitBytes = 1 << 16

// DecodeSubmit parses one JSON job submission strictly: unknown fields are
// rejected (a typoed knob must not silently become a default), trailing
// data is rejected, the body is size-capped, and the decoded spec is
// normalized and validated before it is returned. It never panics on
// arbitrary input (fuzzed).
func DecodeSubmit(r io.Reader) (Submit, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSubmitBytes))
	dec.DisallowUnknownFields()
	var sub Submit
	if err := dec.Decode(&sub); err != nil {
		return Submit{}, fmt.Errorf("%w: decoding submission: %v", ErrBadSpec, err)
	}
	if dec.More() {
		return Submit{}, fmt.Errorf("%w: trailing data after submission", ErrBadSpec)
	}
	if sub.ID != "" {
		if err := ValidateID(sub.ID); err != nil {
			return Submit{}, err
		}
	}
	sub.Spec = sub.Spec.Normalized()
	if err := sub.Spec.Validate(); err != nil {
		return Submit{}, err
	}
	return sub, nil
}
