package job

import (
	"os"

	"repro/internal/snap"
)

// SnapFile is an append-only snap checkpoint stream on disk with the
// latched-error discipline both CLIs used to hand-roll: periodic
// checkpoint appends latch their first failure (checkpointing must never
// abort a run mid-measurement), terminal frames report immediately, and
// the caller checks Err once at the end. Every append is a single Write,
// so a crash tears at most the final frame.
type SnapFile struct {
	f    *os.File
	werr error
}

// CreateSnapFile opens (or creates) the checkpoint stream at path. With
// appendMode the existing stream is extended — the resume case, where the
// file's frames are already aligned with the run being continued — and
// without it the file is truncated for a fresh run.
func CreateSnapFile(path string, appendMode bool) (*SnapFile, error) {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendMode {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, err
	}
	return &SnapFile{f: f}, nil
}

// Append writes one frame, latching the first failure: later appends are
// no-ops returning the latched error, which Err also reports.
func (s *SnapFile) Append(kind string, v any) error {
	if s.werr != nil {
		return s.werr
	}
	if err := snap.Append(s.f, kind, v); err != nil {
		s.werr = err
	}
	return s.werr
}

// Err reports the latched append failure, if any.
func (s *SnapFile) Err() error { return s.werr }

// Close closes the underlying file, reporting the latched append failure
// in preference to the close error.
func (s *SnapFile) Close() error {
	cerr := s.f.Close()
	if s.werr != nil {
		return s.werr
	}
	return cerr
}
