package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/record"
	"repro/internal/snap"
)

// Store layout: one directory per job under the root.
//
//	<root>/<id>/spec.json      the submitted Spec (atomic write, never rewritten)
//	<root>/<id>/records.jsonl  the record log (record.StreamWriter, torn-tail tolerant)
//	<root>/<id>/job.snap       checkpoint frames + one terminal result frame
//
// Everything in a job directory is either appended with single writes or
// written atomically, so a daemon killed at any instant leaves a directory
// the next start can classify: a terminal result frame means the job is
// finished; a checkpoint frame without one means "resume from here"; bare
// spec.json means "run from scratch" (which, with the job's deterministic
// seed, replays the identical stream anyway).
const (
	specFile    = "spec.json"
	recordsFile = "records.jsonl"
	snapFile    = "job.snap"
)

// ResultKind tags the terminal frame a finished job appends to its snap
// stream.
const ResultKind = "job-result/v1"

// TaskResult is one task's line in a job result.
type TaskResult struct {
	Name         string  `json:"name"`
	GFLOPS       float64 `json:"gflops"`
	Measurements int     `json:"measurements"`
}

// Result is the terminal frame of a job: how it ended, and — for completed
// jobs — the deployment statistics.
type Result struct {
	// State is the terminal state: StateDone, StateFailed, or
	// StateCanceled.
	State State `json:"state"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// LatencyMS / Variance are the deployment's end-to-end latency
	// statistics (done jobs only).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	Variance  float64 `json:"variance,omitempty"`
	// TotalMeasurements sums tuning measurements over all tasks.
	TotalMeasurements int `json:"total_measurements,omitempty"`
	// Records is the record-log length the job ended with.
	Records int `json:"records,omitempty"`
	// Tasks lists per-task bests (done jobs only).
	Tasks []TaskResult `json:"tasks,omitempty"`
}

// ErrExists reports a submission whose job ID is already in the store.
var ErrExists = errors.New("job: job already exists")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("job: no such job")

// Store is the crash-safe on-disk home of every job the service has
// accepted. It is a dumb directory layer: all locking and state machinery
// lives in the Manager.
type Store struct {
	root string
}

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: opening store %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Dir returns the job's directory path.
func (s *Store) Dir(id string) string { return filepath.Join(s.root, id) }

// LogPath returns the job's record-log path.
func (s *Store) LogPath(id string) string { return filepath.Join(s.root, id, recordsFile) }

// SnapPath returns the job's checkpoint-stream path.
func (s *Store) SnapPath(id string) string { return filepath.Join(s.root, id, snapFile) }

// SpecPath returns the job's spec path.
func (s *Store) SpecPath(id string) string { return filepath.Join(s.root, id, specFile) }

// Create claims a directory for a new job and writes its spec atomically.
// A directory that already holds a spec is ErrExists — the deterministic
// SpecID makes identical resubmissions collide here on purpose.
func (s *Store) Create(id string, spec Spec) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	dir := s.Dir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("job: creating %s: %w", dir, err)
	}
	path := s.SpecPath(id)
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, id)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("job: probing %s: %w", path, err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("job: encoding spec %s: %w", id, err)
	}
	return record.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// LoadSpec reads a job's spec. An unknown ID is ErrNotFound.
func (s *Store) LoadSpec(id string) (Spec, error) {
	if err := ValidateID(id); err != nil {
		return Spec{}, err
	}
	data, err := os.ReadFile(s.SpecPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return Spec{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("job: reading spec of %s: %w", id, err)
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("job: decoding spec of %s: %w", id, err)
	}
	return spec, nil
}

// Jobs lists the store's job IDs in sorted order. Directories without a
// spec (a crash between MkdirAll and the atomic spec write) are skipped —
// they hold nothing recoverable.
func (s *Store) Jobs() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("job: scanning store %s: %w", s.root, err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() || ValidateID(e.Name()) != nil {
			continue
		}
		if _, err := os.Stat(s.SpecPath(e.Name())); err != nil {
			continue
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	return ids, nil
}

// LoadRecords reads the job's record log with the torn-tail-tolerant
// reader. A job that has not measured yet returns an empty slice.
func (s *Store) LoadRecords(id string) ([]record.Record, error) {
	f, err := os.Open(s.LogPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("job: opening log of %s: %w", id, err)
	}
	// Read-only open: a close failure cannot lose data here.
	defer func() { _ = f.Close() }()
	recs, err := record.Read(f)
	if err != nil {
		return nil, fmt.Errorf("job: reading log of %s: %w", id, err)
	}
	return recs, nil
}

// AppendResult stamps the job's terminal frame onto its snap stream.
func (s *Store) AppendResult(id string, res Result) error {
	f, err := os.OpenFile(s.SnapPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("job: finalizing %s: %w", id, err)
	}
	aerr := snap.Append(f, ResultKind, res)
	if cerr := f.Close(); aerr == nil {
		aerr = cerr
	}
	if aerr != nil {
		return fmt.Errorf("job: finalizing %s: %w", id, aerr)
	}
	return nil
}
