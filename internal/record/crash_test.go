package record

import (
	"bytes"
	"strings"
	"testing"
)

// crashLog streams n records and then simulates a crash by truncating the
// flushed bytes mid-way through the final line.
func crashLog(t *testing.T, n, cut int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for i := 1; i <= n; i++ {
		if err := sw.Append(Record{Task: "t", Workload: "w", Tuner: "random",
			Step: i, Config: []int{i, 0}, GFLOPS: float64(i), Valid: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[:len(b)-cut]
}

// TestReadTruncatedFinalLine is the crash-recovery contract: a run killed
// mid-Append leaves a partial last line, and Read must hand back the intact
// prefix — the records a resume can still use — instead of
// refusing the whole log.
func TestReadTruncatedFinalLine(t *testing.T) {
	whole := crashLog(t, 4, 0)
	// Length of the final line including its newline: cuts strictly inside
	// it (cut >= 2 also removes the closing brace, making it malformed).
	lastLen := len(whole) - (bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1)
	for cut := 2; cut < lastLen; cut += 3 {
		got, err := Read(bytes.NewReader(crashLog(t, 4, cut)))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(got) != 3 {
			t.Fatalf("cut=%d: %d records, want the 3-record prefix", cut, len(got))
		}
		for i, r := range got {
			if r.Step != i+1 || r.GFLOPS != float64(i+1) {
				t.Fatalf("cut=%d: prefix corrupted: %+v", cut, r)
			}
		}
	}
}

// TestReadTruncatedFinalLineWithTrailingBlank: trailing blank lines after
// the partial record do not turn the tolerated truncation into an error.
func TestReadTruncatedFinalLineWithTrailingBlank(t *testing.T) {
	log := append(crashLog(t, 3, 5), []byte("\n\n")...)
	got, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d records, want 2", len(got))
	}
}

// TestReadMidFileCorruptionStillFatal: a malformed line with real content
// after it is corruption, not a crash artifact, and must stay an error.
func TestReadMidFileCorruptionStillFatal(t *testing.T) {
	whole := string(crashLog(t, 3, 0))
	lines := strings.SplitAfter(whole, "\n")
	corrupted := lines[0] + "{\"task\":\"t\",\"ste\n" + lines[2]
	if _, err := Read(strings.NewReader(corrupted)); err == nil {
		t.Fatal("mid-file corruption should error")
	}
	if !strings.Contains(whole, "\n") {
		t.Fatal("sanity: log not line-delimited")
	}
}

// TestReadTruncatedOnlyLine: a log that crashed during its very first
// Append loads as empty, not as an error.
func TestReadTruncatedOnlyLine(t *testing.T) {
	got, err := Read(strings.NewReader("{\"task\":\"t\",\"work"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d records from a torn single-line log", len(got))
	}
}
