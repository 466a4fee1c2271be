package tuner

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/transfer"
)

func testTask(t *testing.T) *Task {
	t.Helper()
	task, err := NewTask("test.conv", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func sim(seed int64) backend.Backend {
	return backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), seed))
}

// mustTune runs a tuner to completion, failing the test on any error other
// than ErrNoValidConfig (which individual tests assert through res.Found).
func mustTune(t *testing.T, tn Tuner, task *Task, b backend.Backend, opts Options) Result {
	t.Helper()
	res, err := Tune(context.Background(), tn, task, b, opts)
	if err != nil && !errors.Is(err, ErrNoValidConfig) {
		t.Fatalf("%s: unexpected tune error: %v", tn.Name(), err)
	}
	return res
}

func quickOpts(budget int, seed int64) Options {
	return Options{Budget: budget, EarlyStop: -1, PlanSize: 16, Seed: seed}
}

func allTuners() []Tuner {
	return []Tuner{RandomTuner{}, GridTuner{}, GATuner{}, NewAutoTVM(), NewBTED(), NewBTEDBAO()}
}

func TestAllTunersRespectBudget(t *testing.T) {
	task := testTask(t)
	for _, tn := range allTuners() {
		res := mustTune(t, tn, task, sim(1), quickOpts(60, 7))
		if res.Measurements > 60 {
			t.Errorf("%s measured %d > budget 60", tn.Name(), res.Measurements)
		}
		if res.Measurements == 0 {
			t.Errorf("%s measured nothing", tn.Name())
		}
		if len(res.Samples) != res.Measurements {
			t.Errorf("%s sample count mismatch", tn.Name())
		}
		if res.TunerName != tn.Name() || res.TaskName != task.Name {
			t.Errorf("%s result labels wrong: %+v", tn.Name(), res)
		}
	}
}

func TestTunersFindValidConfigs(t *testing.T) {
	task := testTask(t)
	for _, tn := range allTuners() {
		res := mustTune(t, tn, task, sim(2), quickOpts(120, 11))
		if !res.Found {
			t.Errorf("%s found no valid config in 120 measurements", tn.Name())
			continue
		}
		if res.Best.GFLOPS <= 0 {
			t.Errorf("%s best GFLOPS %v", tn.Name(), res.Best.GFLOPS)
		}
	}
}

func TestNoDuplicateMeasurements(t *testing.T) {
	task := testTask(t)
	for _, tn := range allTuners() {
		res := mustTune(t, tn, task, sim(3), quickOpts(100, 13))
		seen := make(map[uint64]bool)
		for _, s := range res.Samples {
			f := s.Config.Flat()
			if seen[f] {
				t.Errorf("%s measured a config twice", tn.Name())
				break
			}
			seen[f] = true
		}
	}
}

// TestEarlyStopping: the session's early stopping bounds every run, the
// BTED+BAO stage included, which has no stopping rule of its own.
func TestEarlyStopping(t *testing.T) {
	task := testTask(t)
	opts := Options{Budget: 600, EarlyStop: 30, PlanSize: 16, Seed: 5}
	for _, tn := range []Tuner{RandomTuner{}, NewBTEDBAO()} {
		res := mustTune(t, tn, task, sim(4), opts)
		if res.Measurements >= 600 {
			t.Fatalf("%s: early stop did not bound the run: %d", tn.Name(), res.Measurements)
		}
	}
}

func TestObserverSeesEverything(t *testing.T) {
	task := testTask(t)
	count := 0
	opts := quickOpts(50, 1)
	opts.Observer = func(step int, s active.Sample) {
		count++
		if step != count {
			t.Fatalf("step %d out of order (want %d)", step, count)
		}
	}
	res := mustTune(t, NewAutoTVM(), task, sim(5), opts)
	if count != res.Measurements {
		t.Fatalf("observer saw %d of %d measurements", count, res.Measurements)
	}
}

func TestModelTunersBeatRandom(t *testing.T) {
	// Averaged over a few seeds, the model-based tuners must beat pure
	// random search on equal budgets — the premise of the whole paper.
	task, err := NewTask("test.conv2", tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 3
	budget := 160
	mean := func(tn Tuner, base int64) float64 {
		total := 0.0
		for r := 0; r < rounds; r++ {
			res := mustTune(t, tn, task, sim(int64(r)+base), quickOpts(budget, int64(100+r)))
			if res.Found {
				total += res.Best.GFLOPS
			}
		}
		return total / float64(rounds)
	}
	randomG := mean(RandomTuner{}, 1000)
	autotvmG := mean(NewAutoTVM(), 2000)
	baoG := mean(NewBTEDBAO(), 3000)
	if autotvmG <= randomG {
		t.Errorf("autotvm %.0f should beat random %.0f", autotvmG, randomG)
	}
	if baoG <= randomG {
		t.Errorf("bted+bao %.0f should beat random %.0f", baoG, randomG)
	}
}

func TestDeterministicRuns(t *testing.T) {
	task := testTask(t)
	for _, tn := range []Tuner{NewAutoTVM(), NewBTEDBAO()} {
		a := mustTune(t, tn, task, sim(7), quickOpts(60, 3))
		b := mustTune(t, tn, task, sim(7), quickOpts(60, 3))
		if a.Measurements != b.Measurements {
			t.Fatalf("%s nondeterministic measurement count", tn.Name())
		}
		for i := range a.Samples {
			if !a.Samples[i].Config.Equal(b.Samples[i].Config) {
				t.Fatalf("%s nondeterministic sample order", tn.Name())
			}
		}
	}
}

func TestTransferLearningAcrossTasks(t *testing.T) {
	// Tuning a second similar task with history should work and record
	// into the shared history.
	h := transfer.NewHistory()
	t1, err := NewTask("a", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTask("b", tensor.Conv2D(1, 64, 14, 14, 128, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(60, 1)
	opts.Transfer = h
	mustTune(t, NewAutoTVM(), t1, sim(8), opts)
	if h.NumTasks() != 1 {
		t.Fatalf("history has %d tasks after first run", h.NumTasks())
	}
	res := mustTune(t, NewAutoTVM(), t2, sim(9), opts)
	if !res.Found {
		t.Fatal("transfer run found nothing")
	}
	if h.NumTasks() != 2 {
		t.Fatalf("history has %d tasks after second run", h.NumTasks())
	}
}

func TestBestTrace(t *testing.T) {
	task := testTask(t)
	res := mustTune(t, RandomTuner{}, task, sim(10), quickOpts(40, 2))
	trace := res.BestTrace()
	if len(trace) != res.Measurements {
		t.Fatalf("trace length %d", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] < trace[i-1] {
			t.Fatal("best trace must be non-decreasing")
		}
	}
}

func TestFromGraphTask(t *testing.T) {
	g := graph.MobileNetV1()
	gts := graph.ExtractTasks(g, graph.ConvOnly)
	tk, err := FromGraphTask(gts[0])
	if err != nil {
		t.Fatal(err)
	}
	if tk.Name != gts[0].Name || tk.Count != gts[0].Count || tk.Space == nil {
		t.Fatalf("conversion wrong: %+v", tk)
	}
	bad := graph.Task{Name: "bad", Workload: tensor.Workload{Op: tensor.OpKind(9), N: 1, C: 1, F: 1}}
	if _, err := FromGraphTask(bad); err == nil {
		t.Fatal("bad workload should error")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Budget != 1024 || o.EarlyStop != 400 || o.PlanSize != 64 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	o = Options{EarlyStop: -1}.normalized()
	if o.EarlyStop != -1 {
		t.Fatal("negative EarlyStop must be preserved (disabled)")
	}
}

func TestGridTunerDeterministicPermutation(t *testing.T) {
	task := testTask(t)
	res := mustTune(t, GridTuner{}, task, sim(11), quickOpts(50, 1))
	if res.Measurements != 50 {
		t.Fatalf("grid measured %d, want 50 (step must be a permutation)", res.Measurements)
	}
	// Fully deterministic: a second run visits identical configs.
	res2 := mustTune(t, GridTuner{}, task, sim(12), quickOpts(50, 99))
	for i := range res.Samples {
		if !res.Samples[i].Config.Equal(res2.Samples[i].Config) {
			t.Fatal("grid sweep must be seed-independent")
		}
	}
}

func TestTinySpaceExhaustion(t *testing.T) {
	// A space smaller than the budget: tuners must terminate without
	// spinning forever.
	sp := space.New(space.NewEnumKnob("a", 0, 1, 2), space.NewEnumKnob("b", 0, 1))
	task := &Task{Name: "tiny", Workload: tensor.Conv2D(1, 4, 8, 8, 4, 3, 1, 1), Space: sp, Count: 1}
	for _, tn := range []Tuner{RandomTuner{}, GATuner{}, NewAutoTVM()} {
		res := mustTune(t, tn, task, sim(12), quickOpts(100, 1))
		if res.Measurements > 6 {
			t.Fatalf("%s measured %d configs in a 6-point space", tn.Name(), res.Measurements)
		}
	}
}

// TestGridTunerExhaustsSmallSpace is the regression test for the
// budget-accounting bug where GridTuner looped Budget times on a space
// smaller than the budget, silently revisiting configurations as no-ops.
// The sweep must now cap at Space.Size(): every config measured exactly
// once, then stop.
func TestGridTunerExhaustsSmallSpace(t *testing.T) {
	sp := space.New(space.NewEnumKnob("a", 0, 1, 2), space.NewEnumKnob("b", 0, 1))
	task := &Task{Name: "tiny", Workload: tensor.Conv2D(1, 4, 8, 8, 4, 3, 1, 1), Space: sp, Count: 1}
	res := mustTune(t, GridTuner{}, task, sim(15), quickOpts(100, 1))
	if res.Measurements != 6 {
		t.Fatalf("grid measured %d configs in a 6-point space, want exactly 6", res.Measurements)
	}
	seen := make(map[uint64]bool)
	for _, s := range res.Samples {
		f := s.Config.Flat()
		if seen[f] {
			t.Fatalf("grid measured config %d twice", f)
		}
		seen[f] = true
	}
}

func TestBTEDTunerUsesBTEDInit(t *testing.T) {
	// BTED and AutoTVM differ only in initialization: with the same seed
	// their first PlanSize samples must differ (BTED selects, random draws).
	task := testTask(t)
	opts := quickOpts(20, 99)
	a := mustTune(t, NewAutoTVM(), task, sim(13), opts)
	b := mustTune(t, NewBTED(), task, sim(13), opts)
	same := true
	for i := 0; i < 16 && i < len(a.Samples) && i < len(b.Samples); i++ {
		if !a.Samples[i].Config.Equal(b.Samples[i].Config) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("BTED init produced the identical set as random init")
	}
	if a.TunerName != "autotvm" || b.TunerName != "bted" {
		t.Fatal("tuner names wrong")
	}
}

func TestNewTaskInvalidWorkload(t *testing.T) {
	if _, err := NewTask("bad", tensor.Conv2D(0, 3, 8, 8, 8, 3, 1, 1)); err == nil {
		t.Fatal("invalid workload should error")
	}
}

func TestSessionSkipsVisited(t *testing.T) {
	task := testTask(t)
	s := newSession(task, sim(14), Options{Budget: 10, PlanSize: 4}.normalized())
	rng := rand.New(rand.NewSource(1))
	c := task.Space.Random(rng)
	ctx := context.Background()
	s.measure(ctx, c)
	s.measure(ctx, c)
	if len(s.samples) != 1 {
		t.Fatalf("visited config measured twice: %d samples", len(s.samples))
	}
}
