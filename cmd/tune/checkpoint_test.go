package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/record"
	"repro/internal/snap"
)

func testCfg(conc int, policy string) runConfig {
	return runConfig{
		tuner:        "autotvm",
		ops:          "conv",
		device:       "gtx1080ti",
		budget:       24,
		earlyStop:    -1,
		planSize:     8,
		runs:         50,
		workers:      2,
		taskConc:     conc,
		budgetPolicy: policy,
	}
}

// reportLines extracts the deterministic parts of a run's report: the final
// summary line and the per-task best lines with their wall-clock suffix
// stripped (elapsed times are the one part of the output that legitimately
// differs between an uninterrupted and a resumed run).
func reportLines(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, " GFLOPS after "):
			if i := strings.LastIndex(line, " in "); i >= 0 {
				line = line[:i]
			}
			keep = append(keep, line)
		case strings.Contains(line, " ms (var "):
			keep = append(keep, line)
		}
	}
	return keep
}

func readLog(t *testing.T, path string) []record.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := record.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// sameRecordStream asserts the two logs carry the same measurements. With
// task concurrency 1 the whole stream is byte-identical; with concurrent
// tasks the cross-task interleaving of OnRecord is unspecified, so the
// comparison drops to per-task subsequences (which are fully ordered).
func sameRecordStream(t *testing.T, wantPath, gotPath string, conc int) {
	t.Helper()
	if conc == 1 {
		want, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(gotPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("record logs differ byte-wise: %d vs %d bytes", len(want), len(got))
		}
		return
	}
	byTask := func(recs []record.Record) map[string][]record.Record {
		m := make(map[string][]record.Record)
		for _, r := range recs {
			m[r.Task] = append(m[r.Task], r)
		}
		return m
	}
	want, got := byTask(readLog(t, wantPath)), byTask(readLog(t, gotPath))
	if len(want) != len(got) {
		t.Fatalf("task sets differ: %d vs %d", len(want), len(got))
	}
	for task, wr := range want {
		gr, ok := got[task]
		if !ok || len(wr) != len(gr) {
			t.Fatalf("task %s: %d records vs %d", task, len(wr), len(gr))
		}
		for i := range wr {
			// Record holds a slice field, so compare formatted values.
			if fmt.Sprintf("%+v", wr[i]) != fmt.Sprintf("%+v", gr[i]) {
				t.Fatalf("task %s record %d differs:\n%+v\n%+v", task, i, wr[i], gr[i])
			}
		}
	}
}

// TestCrashResumeCheckpoint is the end-to-end rehearsal of an interrupted
// tune run: the run is killed at a checkpoint boundary (through the same
// context-cancellation path Ctrl-C uses), resumed from the checkpoint file,
// and must finish with a record log and summary identical to a run that was
// never interrupted.
func TestCrashResumeCheckpoint(t *testing.T) {
	const model = "mobilenet-v1"
	cases := []struct {
		name      string
		conc      int
		policy    string
		seed      int64
		stopAfter int
	}{
		{"sequential", 1, "uniform", 2021, 2},
		{"rounds", 2, "uniform", 2022, 3},
		{"adaptive", 2, "adaptive", 2023, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := testCfg(tc.conc, tc.policy)

			refLog := filepath.Join(dir, "ref.jsonl")
			var refOut bytes.Buffer
			if err := runModel(context.Background(), &refOut, model, cfg, tc.seed, refLog, nil, "", nil); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Interrupted leg: cancel after the Nth checkpoint. The run must
			// die with the cancellation error while leaving a loadable
			// checkpoint file behind.
			cpPath := filepath.Join(dir, "run.ckpt")
			log := filepath.Join(dir, "run.jsonl")
			killed := cfg
			killed.stopAfter = tc.stopAfter
			var killedOut bytes.Buffer
			err := runModel(context.Background(), &killedOut, model, killed, tc.seed, log, nil, cpPath, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}

			cp, err := job.LoadCheckpoint(cpPath)
			if err != nil {
				t.Fatal(err)
			}
			// The scheduler's first boundary precedes any measurement, so a
			// very early kill can leave a valid zero-record checkpoint; the
			// frame itself must always carry scheduler state.
			if cp.Sched == nil {
				t.Fatalf("checkpoint has no scheduler state: %+v", cp)
			}
			if got := len(readLog(t, log)); got < cp.Records {
				t.Fatalf("log holds %d records, checkpoint counts %d", got, cp.Records)
			}

			var resumedOut bytes.Buffer
			if err := runModel(context.Background(), &resumedOut, model, cfg, tc.seed, log, nil, cpPath, cp); err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			sameRecordStream(t, refLog, log, tc.conc)
			ref, resumed := reportLines(refOut.String()), reportLines(resumedOut.String())
			if len(ref) == 0 {
				t.Fatal("reference report has no comparable lines")
			}
			if fmt.Sprint(ref) != fmt.Sprint(resumed) {
				t.Fatalf("reports differ:\nref:     %q\nresumed: %q", ref, resumed)
			}

			// The resumed run appended to the same checkpoint file; its final
			// frame must be the run-completing one with every task finalized.
			final, err := job.LoadCheckpoint(cpPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range final.Sched.Tasks {
				if task.Outcome == nil {
					t.Fatalf("final checkpoint leaves task %s unfinalized", task.Name)
				}
			}
		})
	}
}

// TestCheckpointResumeFlagValidation exercises the loud-failure paths: a
// resume must present the original flags, and a checkpoint file is
// distinguishable from a record log.
func TestCheckpointResumeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(1, "uniform")
	cfg.stopAfter = 1
	cpPath := filepath.Join(dir, "run.ckpt")
	err := runModel(context.Background(), io.Discard, "mobilenet-v1", cfg, 7, "", nil, cpPath, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	if kind, err := snap.Detect(cpPath); err != nil || kind != snap.KindSnap {
		t.Fatalf("snap.Detect(%s) = %v, %v; want KindSnap", cpPath, kind, err)
	}
	logPath := filepath.Join(dir, "plain.jsonl")
	if err := record.Write(mustCreate(t, logPath), []record.Record{{Task: "t", Workload: "w", Step: 1, Config: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	if kind, err := snap.Detect(logPath); err != nil || kind != snap.KindRecords {
		t.Fatalf("snap.Detect on a record log = %v, %v; want KindRecords", kind, err)
	}

	cp, err := job.LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(cfg.spec("mobilenet-v1", 8)); err == nil || !strings.Contains(err.Error(), "original flags") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
	other := cfg
	other.budget = 99
	if err := cp.Validate(other.spec("mobilenet-v1", 7)); err == nil || !strings.Contains(err.Error(), "-budget") {
		t.Fatalf("budget mismatch not rejected: %v", err)
	}
	if err := cp.Validate(cfg.spec("resnet-18", 7)); err == nil {
		t.Fatal("model mismatch not rejected")
	}
	if err := cp.Validate(cfg.spec("mobilenet-v1", 7)); err != nil {
		t.Fatalf("matching flags rejected: %v", err)
	}
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
