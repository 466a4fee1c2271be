// Package record implements the tuning-log format: one JSON object per
// line, mirroring AutoTVM's measure records. Logs make tuning runs
// resumable, feed the transfer-learning history, and let cmd tools apply
// previously-found best configurations.
package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/space"
)

// Record is one measurement entry.
type Record struct {
	Task     string  `json:"task"`     // task name, e.g. "mobilenet-v1.T3"
	Workload string  `json:"workload"` // canonical workload key
	Tuner    string  `json:"tuner"`    // producing algorithm
	Step     int     `json:"step"`     // 1-based measurement index within the run
	Config   []int   `json:"config"`   // knob option indices
	GFLOPS   float64 `json:"gflops"`   // 0 when invalid
	Valid    bool    `json:"valid"`
}

// Line encodes one record to its canonical newline-terminated JSON wire
// form — byte-for-byte what Write and StreamWriter.Append emit
// (json.Encoder is Marshal plus '\n', with the same HTML escaping). It is
// the single wire encoding of a record: the job layer encodes each record
// once at append time and every consumer — log file, SSE frame, replay —
// reuses the same bytes.
func Line(rec Record) ([]byte, error) {
	b, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("record: encoding line: %w", err)
	}
	return append(b, '\n'), nil
}

// Write encodes records as JSON lines.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("record: encoding entry %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read decodes JSON-line records until EOF. Blank lines are skipped, and a
// malformed *final* line is dropped silently: a crash mid-Append leaves a
// truncated last line behind, and the intact prefix is exactly what a
// StreamWriter had checkpointed — so a run resumed from the log still loads
// everything that was actually measured. A malformed line with more content
// after it is genuine corruption and stays an error.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	var pendingErr error // malformed line seen; fatal unless it stays last
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			pendingErr = fmt.Errorf("record: line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("record: reading: %w", err)
	}
	return out, nil
}

// ToConfig rebuilds the record's configuration in the given space.
func (r Record) ToConfig(sp *space.Space) (space.Config, error) {
	return sp.FromIndices(r.Config)
}
