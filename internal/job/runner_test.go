package job

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/snap"
)

// tinySpec is the shared small-but-real job the lifecycle tests run:
// conv-only mobilenet with a small budget finishes in well under a second
// while still crossing several scheduler boundaries (checkpoints).
func tinySpec(seed int64) Spec {
	return Spec{
		Model: "mobilenet-v1", Tuner: "autotvm", Device: "gtx1080ti", Ops: "conv",
		Seed: seed, Budget: 16, EarlyStop: -1, PlanSize: 8, Runs: 20, Workers: 2,
		TaskConcurrency: 1, BudgetPolicy: "uniform",
	}
}

func readFileBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunCheckpointResumeBitIdentical is the runner-level crash rehearsal:
// a run killed at its Nth checkpoint boundary (via the AfterCheckpoint hook
// riding the same context-cancellation path Ctrl-C and daemon shutdown use)
// and resumed from the frame must leave a record log byte-identical to a
// run that was never interrupted.
func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2031)

	refLog := filepath.Join(dir, "ref.jsonl")
	ref, err := Run(context.Background(), spec, RunOptions{LogPath: refLog})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !ref.Streamed || ref.Records == 0 || ref.Deployment == nil || ref.Backend == nil {
		t.Fatalf("reference result incomplete: %+v", ref)
	}

	log := filepath.Join(dir, "run.jsonl")
	cpPath := filepath.Join(dir, "run.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamed int
	killed, err := Run(ctx, spec, RunOptions{
		LogPath:        log,
		CheckpointPath: cpPath,
		OnRecordLine:   func(record.Record, []byte) { streamed++ },
		AfterCheckpoint: func(n int) {
			if n >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if !killed.Streamed {
		t.Fatalf("interrupted run did not flush its log: %+v", killed)
	}
	if streamed != killed.Records {
		t.Errorf("OnRecordLine saw %d records, log flushed %d", streamed, killed.Records)
	}
	if kind, err := snap.Detect(cpPath); err != nil || kind != snap.KindSnap {
		t.Fatalf("snap.Detect(checkpoint) = %v, %v", kind, err)
	}

	cp, _, err := LoadSnap(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(spec); err != nil {
		t.Fatalf("checkpoint rejects its own spec: %v", err)
	}

	if _, err := Run(context.Background(), spec, RunOptions{
		LogPath: log, CheckpointPath: cpPath, ResumeCheckpoint: cp,
	}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if want, got := readFileBytes(t, refLog), readFileBytes(t, log); !bytes.Equal(want, got) {
		t.Fatalf("resumed log differs from uninterrupted run: %d vs %d bytes", len(want), len(got))
	}
}

func TestRunResumeRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2032)
	cpPath := filepath.Join(dir, "run.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, spec, RunOptions{
		CheckpointPath:  cpPath,
		AfterCheckpoint: func(int) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	cp, _, err := LoadSnap(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Budget = 99
	_, err = Run(context.Background(), other, RunOptions{CheckpointPath: cpPath, ResumeCheckpoint: cp})
	if err == nil || !strings.Contains(err.Error(), "original flags") {
		t.Fatalf("mismatched resume = %v, want an original-flags rejection", err)
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	spec := tinySpec(1)
	spec.Tuner = "nope"
	if _, err := Run(context.Background(), spec, RunOptions{}); err == nil {
		t.Error("unknown tuner accepted")
	}
	spec = tinySpec(1)
	spec.Device = "nope"
	if _, err := Run(context.Background(), spec, RunOptions{}); err == nil {
		t.Error("unknown device accepted")
	}
}
