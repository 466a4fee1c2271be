package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/job"
	"repro/internal/snap"
	"repro/internal/tuner"
)

// openStore opens a job store in a fresh test directory.
func openStore(t *testing.T) *job.Store {
	t.Helper()
	st, err := job.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tinyGrid is a two-arm, two-task, two-trial grid small enough to run
// twice in a test.
func tinyGrid(t *testing.T) Grid {
	t.Helper()
	tasks, err := mobilenetTasks()
	if err != nil {
		t.Fatal(err)
	}
	return Grid{
		Label:   "tiny",
		Arms:    []Arm{{"random", tuner.RandomTuner{}}, {"BTED+BAO", tuner.NewBTEDBAO()}},
		Tasks:   tasks[:2],
		Seeds:   []int64{3, 5},
		Options: tuner.Options{Budget: 16, EarlyStop: -1, PlanSize: 8},
	}
}

// TestFig4ArmsArePaired checks common random numbers: within one trial,
// BTED and BTED+BAO start from the same BTED initialization set, so they
// must measure it with bit-identical GFLOPS — the same configurations
// under the same noise draws.
func TestFig4ArmsArePaired(t *testing.T) {
	cfg := tinyCfg()
	cfg.Budget = 20
	cfg.PlanSize = 8
	g, err := fig4Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Tasks = g.Tasks[:1]
	g.Parallel = 1 // BTED's cell finishes before BTED+BAO's starts, so the memo counts are exact
	res, err := RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	bted, bao := res.Trials(1, 0)[0].Samples, res.Trials(2, 0)[0].Samples
	if len(bted) < cfg.PlanSize || len(bao) < cfg.PlanSize {
		t.Fatalf("samples: BTED %d, BTED+BAO %d, want >= %d each", len(bted), len(bao), cfg.PlanSize)
	}
	for i := 0; i < cfg.PlanSize; i++ {
		a, b := bted[i], bao[i]
		if a.Config.Flat() != b.Config.Flat() || a.Valid != b.Valid ||
			math.Float64bits(a.GFLOPS) != math.Float64bits(b.GFLOPS) {
			t.Fatalf("init sample %d differs: BTED %v %v %v, BTED+BAO %v %v %v",
				i, a.Config.Flat(), a.GFLOPS, a.Valid, b.Config.Flat(), b.GFLOPS, b.Valid)
		}
	}
	if res.Cache.Hits < int64(cfg.PlanSize) {
		t.Fatalf("shared cache hits = %d, want the paired init set (%d) served from the memo", res.Cache.Hits, cfg.PlanSize)
	}
}

// TestGridParallelInvariance runs a tiny grid 1-wide and 4-wide, and a tiny
// Fig. 4 with GOMAXPROCS 1 and 4 (its grid defaults to that width): every
// cell and every averaged trace must be identical.
func TestGridParallelInvariance(t *testing.T) {
	ctx := context.Background()
	g := tinyGrid(t)
	g.Parallel = 1
	serial, err := RunGrid(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	g.Parallel = 4
	wide, err := RunGrid(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.cells, wide.cells) {
		t.Fatal("grid cells differ between Parallel 1 and 4")
	}

	cfg := tinyCfg()
	cfg.Budget = 24
	cfg.PlanSize = 8
	cfg.Trials = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, err := Fig4(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	four, err := Fig4(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("Fig. 4 differs between 1-wide and 4-wide grids")
	}
}

// TestGridProgressSerialized runs cells concurrently with a Progress sink
// that is not safe for concurrent use; the grid must never call it from
// two cells at once (the race detector also watches the slice).
func TestGridProgressSerialized(t *testing.T) {
	g := tinyGrid(t)
	g.Parallel = 4
	var lines []string
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	g.Progress = func(s string) {
		if inFlight.Add(1) != 1 {
			overlapped.Store(true)
		}
		lines = append(lines, s)
		inFlight.Add(-1)
	}
	if _, err := RunGrid(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("Progress was called concurrently")
	}
	cells := len(g.Arms) * len(g.Tasks) * len(g.Seeds)
	if len(lines) != cells+1 || !strings.Contains(lines[cells], "shared cache") {
		t.Fatalf("progress lines = %q, want one per cell plus the cache line", lines)
	}
}

// TestTable1StoreResume runs a Table I study over a job store three ways —
// fresh, rerun over the complete store (every cell read back, nothing
// tuned), and rerun after stripping one cell's result frame (that cell
// resumes from a mid-run checkpoint) — and demands identical numbers from
// all of them, and from a plain job.Run of the stripped cell's spec.
func TestTable1StoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a whole model x 3 methods, repeatedly")
	}
	ctx := context.Background()
	cfg := tinyCfg()
	cfg.Budget = 24
	cfg.PlanSize = 8
	cfg.EarlyStop = -1
	models := []string{"squeezenet-v1.1"}
	store := openStore(t)

	ref, err := Table1(ctx, cfg, models, store)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", ref)
	ids, err := store.Jobs()
	if err != nil || len(ids) != len(Methods)*cfg.Trials {
		t.Fatalf("store jobs = %v (err %v), want %d", ids, err, len(Methods)*cfg.Trials)
	}

	// Uninterrupted equals store-backed: the stored cell is exactly what a
	// plain run of its spec, with no files at all, deploys.
	spec := cfg.table1Spec(models[0], 2, 0)
	id := job.SpecID(spec)
	plain, err := job.Run(ctx, spec, job.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, stored, err := job.LoadSnap(store.SnapPath(id))
	if err != nil || stored == nil {
		t.Fatalf("stored result of %s: %v (err %v)", id, stored, err)
	}
	if plain.Deployment.LatencyMS != stored.LatencyMS || plain.Deployment.Variance != stored.Variance {
		t.Fatalf("store-backed cell %v/%v, plain run %v/%v",
			stored.LatencyMS, stored.Variance, plain.Deployment.LatencyMS, plain.Deployment.Variance)
	}

	// A rerun over the complete store reads every cell back, tuning nothing.
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }
	again, err := Table1(ctx, cfg, models, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", again); got != want {
		t.Fatalf("rerun over a complete store diverged:\nwant %s\ngot  %s", want, got)
	}
	if n := countContaining(lines, ": in store"); n != len(Methods)*cfg.Trials {
		t.Fatalf("%d cells read back, want %d (progress: %q)", n, len(Methods)*cfg.Trials, lines)
	}
	if n := countContaining(lines, "shared cache 0 hits, 0 misses"); n != 1 {
		t.Fatalf("rerun measured something (progress: %q)", lines)
	}

	// Keep only the checkpoint frames up to the middle one of the BTED+BAO
	// cell — what an interrupt mid-run leaves behind. The rerun must resume
	// that cell and land on the same numbers.
	path := store.SnapPath(id)
	frames, err := snap.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cps []snap.Frame
	for _, fr := range frames {
		if fr.Kind == job.CheckpointKind {
			cps = append(cps, fr)
		}
	}
	if len(cps) < 2 {
		t.Fatalf("%s holds %d checkpoint frames, want several", path, len(cps))
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range cps[:len(cps)/2] {
		if err := snap.Append(f, fr.Kind, json.RawMessage(fr.Payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lines = nil
	resumed, err := Table1(ctx, cfg, models, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", resumed); got != want {
		t.Fatalf("resumed study diverged:\nwant %s\ngot  %s", want, got)
	}
	if n := countContaining(lines, "resuming from its checkpoint"); n != 1 {
		t.Fatalf("%d cells resumed, want 1 (progress: %q)", n, lines)
	}
	if _, res, err := job.LoadSnap(store.SnapPath(id)); err != nil || res == nil {
		t.Fatalf("%s has no result frame after the resume (err %v)", id, err)
	}
}

func countContaining(lines []string, sub string) int {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, sub) {
			n++
		}
	}
	return n
}

// TestTable1Spec pins a Table I cell's job: the trial seed shared by every
// arm, every op tuned, checkpoints every quarter budget, and one SpecID
// per (model, method, trial).
func TestTable1Spec(t *testing.T) {
	cfg := Config{Trials: 2, Budget: 64, EarlyStop: 32, PlanSize: 16, Runs: 50, Seed: 9}
	ids := map[string]bool{}
	for trial := 0; trial < cfg.Trials; trial++ {
		for mi := range Methods {
			s := cfg.table1Spec("alexnet", mi, trial)
			if s.Seed != cfg.trialSeed(trial) || s.Ops != "all" || s.CheckpointEvery != 16 ||
				s.Tuner != NewMethodTuner(mi).Name() || s.Budget != 64 || s.EarlyStop != 32 {
				t.Fatalf("method %d trial %d: spec %+v", mi, trial, s)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			ids[job.SpecID(s)] = true
		}
	}
	if len(ids) != len(Methods)*cfg.Trials {
		t.Fatalf("%d distinct SpecIDs, want %d", len(ids), len(Methods)*cfg.Trials)
	}
}
