package job

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/sched"
)

func TestStoreCreateAndLoadSpec(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "mobilenet-v1"}.Normalized()
	spec.Seed = 42
	if err := s.Create("a1", spec); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSpec("a1")
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Errorf("LoadSpec = %+v, want %+v", got, spec)
	}
	if err := s.Create("a1", spec); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := s.LoadSpec("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("LoadSpec(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Create("../escape", spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Create with traversal ID = %v, want ErrBadSpec", err)
	}
}

func TestStoreJobsSkipsSpeclessDirs(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "mobilenet-v1"}.Normalized()
	for _, id := range []string{"b", "a", "c"} {
		if err := s.Create(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	// A crash between MkdirAll and the atomic spec write leaves a bare
	// directory; it holds nothing recoverable and must not surface.
	if err := os.MkdirAll(filepath.Join(s.Root(), "torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("Jobs() = %v, want %v", ids, want)
	}
}

func TestStoreLoadCheckpointClassifies(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "mobilenet-v1"}.Normalized()
	spec.Seed = 7
	if err := s.Create("j1", spec); err != nil {
		t.Fatal(err)
	}

	// No snap file yet: no checkpoint, no result, no error.
	if cp, res, err := LoadSnap(s.SnapPath("j1")); cp != nil || res != nil || err != nil {
		t.Fatalf("LoadSnap with no file = %v, %v, %v", cp, res, err)
	}
	// Empty snap file (crash before the first frame): still nothing.
	if err := os.WriteFile(s.SnapPath("j1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if cp, res, err := LoadSnap(s.SnapPath("j1")); cp != nil || res != nil || err != nil {
		t.Fatalf("LoadSnap on empty file = %v, %v, %v", cp, res, err)
	}
	// A record log or garbage dropped where the snap stream belongs must
	// fail loudly, not read as "no checkpoint" and silently restart the
	// job.
	for _, foreign := range []string{"{\"task\":\"t\"}\n", "garbage\nmore\n"} {
		if err := os.WriteFile(s.SnapPath("j1"), []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSnap(s.SnapPath("j1")); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
			t.Fatalf("LoadSnap on %q = %v, want a loud classification error", foreign, err)
		}
	}

	// A real frame round-trips.
	cpIn := checkpointOf(spec, 3, &sched.Checkpoint{Round: 2})
	sf, err := CreateSnapFile(s.SnapPath("j1"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(CheckpointKind, cpIn); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	cp, res, err := LoadSnap(s.SnapPath("j1"))
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Records != 3 || cp.Sched == nil || cp.Sched.Round != 2 || res != nil {
		t.Fatalf("LoadSnap = %+v, %+v", cp, res)
	}
	if cp.Path != s.SnapPath("j1") {
		t.Errorf("checkpoint Path = %q, want the snap path", cp.Path)
	}
	if err := cp.Validate(spec); err != nil {
		t.Errorf("round-tripped checkpoint fails Validate: %v", err)
	}

	// A finished job's stream ends in its result frame; the one read
	// returns both frames.
	if err := s.AppendResult("j1", Result{State: StateDone, Records: 3}); err != nil {
		t.Fatal(err)
	}
	cp, res, err = LoadSnap(s.SnapPath("j1"))
	if err != nil || cp == nil || cp.Records != 3 || res == nil || res.State != StateDone {
		t.Fatalf("LoadSnap after the result frame = %+v, %+v, %v", cp, res, err)
	}
}

func TestStoreResultRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "mobilenet-v1"}.Normalized()
	if err := s.Create("j1", spec); err != nil {
		t.Fatal(err)
	}
	if _, res, err := LoadSnap(s.SnapPath("j1")); res != nil || err != nil {
		t.Fatalf("LoadSnap before finish = %v, %v", res, err)
	}
	in := Result{State: StateDone, LatencyMS: 1.5, Variance: 0.25, TotalMeasurements: 48,
		Records: 48, Tasks: []TaskResult{{Name: "t0", GFLOPS: 10, Measurements: 48}}}
	if err := s.AppendResult("j1", in); err != nil {
		t.Fatal(err)
	}
	_, out, err := LoadSnap(s.SnapPath("j1"))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.State != StateDone || out.Records != 48 || len(out.Tasks) != 1 || out.Tasks[0].GFLOPS != 10 {
		t.Fatalf("LoadSnap result = %+v", out)
	}
}

func TestStoreLoadRecordsTolerant(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := s.LoadRecords("ghost"); recs != nil || err != nil {
		t.Fatalf("LoadRecords with no log = %v, %v", recs, err)
	}
	if err := s.Create("j1", Spec{Model: "mobilenet-v1"}.Normalized()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(s.LogPath("j1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := record.Write(f, []record.Record{{Task: "t", Workload: "w", Step: 1, Config: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	// A torn final line — the write a crash interrupted — is dropped.
	if _, err := f.WriteString(`{"task":"t","works`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := s.LoadRecords("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Task != "t" {
		t.Fatalf("LoadRecords = %+v, want the one complete record", recs)
	}
}
