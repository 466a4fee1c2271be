package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

func mkFinding(analyzer, file string, line, col int, msg string) finding {
	return finding{Analyzer: analyzer, File: file, Line: line, Col: col, Message: msg}
}

func TestToFindingsRelativizesPaths(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	diags := []analysis.Diagnostic{{
		Analyzer: "maprange",
		Pos:      token.Position{Filename: filepath.Join(root, "internal", "x", "x.go"), Line: 3, Column: 7},
		Message:  "m",
	}}
	fs := toFindings(diags, root)
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1", len(fs))
	}
	want := mkFinding("maprange", "internal/x/x.go", 3, 7, "m")
	if fs[0] != want {
		t.Errorf("got %+v, want %+v", fs[0], want)
	}
}

func TestSARIFShape(t *testing.T) {
	findings := []finding{
		{Analyzer: "maprange", File: "a.go", Line: 3, Col: 7, Message: "escape"},
		{Analyzer: "seedflow", File: "b.go", Line: 1, Col: 1, Message: "literal seed"},
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, findings, analysis.All()); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "repro-lint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(analysis.All()) {
		t.Errorf("%d rules, want %d", len(run.Tool.Driver.Rules), len(analysis.All()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("%d results, want 2", len(run.Results))
	}
	if run.Results[0].RuleID != "maprange" || run.Results[1].Level != "error" {
		t.Errorf("results = %+v", run.Results)
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "a.go" || loc.Region.StartLine != 3 || loc.Region.StartColumn != 7 {
		t.Errorf("location = %+v", loc)
	}
}

func TestSARIFEmptyFindingsStillValid(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, nil, analysis.All()); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Runs[0].Results == nil {
		t.Error("results must marshal as [] (never null) for SARIF consumers")
	}
}

// TestSeededViolationsCaught runs the real driver over a scratch module
// seeded with one deliberate violation per contract analyzer and asserts a
// nonzero exit with every analyzer represented.
func TestSeededViolationsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a module with the source importer")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.21\n")
	write("bad/bad.go", `package bad

import (
	"errors"
	"fmt"
	"math/rand"
)

var ErrDone = errors.New("done")

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Seed() *rand.Rand {
	return rand.New(rand.NewSource(1234))
}

func IsDone(err error) bool {
	return err == ErrDone
}

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`)
	// runCaptured runs the driver with stdout captured so its report can
	// be decoded.
	runCaptured := func(args ...string) (int, bytes.Buffer) {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		code := run(args)
		w.Close()
		os.Stdout = old
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r); err != nil {
			t.Fatal(err)
		}
		return code, buf
	}
	// Every output format fails the run on a finding.
	if code, buf := runCaptured("-sarif", "-root", dir, "-run", "seedflow"); code != 1 {
		t.Fatalf("-sarif exit code = %d, want 1; output:\n%s", code, buf.String())
	}
	code, buf := runCaptured("-json", "-root", dir, "-run", "maprange,seedflow,errcmp")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, buf.String())
	}
	var got []finding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	byAnalyzer := map[string]int{}
	for _, f := range got {
		byAnalyzer[f.Analyzer]++
		if f.File != "bad/bad.go" {
			t.Errorf("file = %q, want module-relative bad/bad.go", f.File)
		}
		if f.Line == 0 || f.Col == 0 {
			t.Errorf("finding missing position: %+v", f)
		}
	}
	for _, want := range []string{"maprange", "seedflow", "errcmp"} {
		if byAnalyzer[want] == 0 {
			t.Errorf("seeded %s violation not caught; findings: %v", want, byAnalyzer)
		}
	}
}

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-run", "nosuchthing", "-list"}); code != 2 {
		t.Errorf("exit code = %d, want 2 for unknown analyzer name", code)
	}
}
