package tuner

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transfer"
	"repro/internal/xgb"
)

// Golden FNV-1a hashes of each tuner's full sample stream, captured from the
// pre-session-refactor sequential implementations (task golden.conv =
// Conv2D(1,32,28,28,64,3,1,1), simulator seed 5, Budget 80, EarlyStop off,
// PlanSize 16, run seed 17, Workers 1). The session refactor — and any
// future change — must reproduce these bit-identically; a mismatch means the
// observable measurement stream changed, which silently invalidates every
// recorded experiment.
var goldenTunerHashes = map[string]uint64{
	"random":    0xad42ff89e768ba3f,
	"grid":      0x907b7e12afaf3f73,
	"ga":        0x406fc88f45d90b85,
	"autotvm":   0x4c76f6ae8318febe,
	"bted":      0x31b420bd2467cab8,
	"chameleon": 0x2185b6d87977da0c,
	"bted+bao":  0x604109040fe62532,
}

// Golden hashes for the transfer-chained pair (task b warm-starts from task
// a's history): autotvm, Budget 64, PlanSize 16, seed 21, simulator seed 9.
const (
	goldenTransferAHash = 0x5eda811436900cd8
	goldenTransferBHash = 0xa11e9c3295d4e8db
)

// goldenSampleHash folds a result's full sample stream — config identity,
// bit-exact throughput, validity — into one FNV-1a hash.
func goldenSampleHash(res Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, s := range res.Samples {
		put(s.Config.Flat())
		put(math.Float64bits(s.GFLOPS))
		if s.Valid {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

func goldenTask(t *testing.T, name string, w tensor.Workload) *Task {
	t.Helper()
	task, err := NewTask(name, w)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func goldenTuners() []Tuner {
	return []Tuner{RandomTuner{}, GridTuner{}, GATuner{},
		NewAutoTVM(), NewBTED(), NewChameleon(), NewBTEDBAO()}
}

// TestGoldenSampleStreams pins every tuner's sample stream to the
// pre-refactor golden hashes.
func TestGoldenSampleStreams(t *testing.T) {
	task := goldenTask(t, "golden.conv", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	for _, tn := range goldenTuners() {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			t.Parallel()
			opts := Options{Budget: 80, EarlyStop: -1, PlanSize: 16, Seed: 17, Workers: 1}
			res, err := Tune(context.Background(), tn, task, sim(5), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Measurements != 80 {
				t.Fatalf("measured %d, want 80", res.Measurements)
			}
			if got, want := goldenSampleHash(res), goldenTunerHashes[tn.Name()]; got != want {
				t.Errorf("sample-stream hash %#016x, want golden %#016x", got, want)
			}
		})
	}
}

// TestGoldenTransferChain pins the cross-task warm-start behaviour: the
// second task's stream depends on the first task's history, so these hashes
// break if either the tuner or the transfer plumbing drifts.
func TestGoldenTransferChain(t *testing.T) {
	h := transfer.NewHistory()
	ta := goldenTask(t, "golden.a", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	tb := goldenTask(t, "golden.b", tensor.Conv2D(1, 64, 14, 14, 128, 3, 1, 1))
	opts := Options{Budget: 64, EarlyStop: -1, PlanSize: 16, Seed: 21, Workers: 1, Transfer: h}
	ra, err := Tune(context.Background(), NewAutoTVM(), ta, sim(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Tune(context.Background(), NewAutoTVM(), tb, sim(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenSampleHash(ra); got != goldenTransferAHash {
		t.Errorf("task a hash %#016x, want golden %#016x", got, uint64(goldenTransferAHash))
	}
	if got := goldenSampleHash(rb); got != goldenTransferBHash {
		t.Errorf("task b hash %#016x, want golden %#016x", got, uint64(goldenTransferBHash))
	}
}

// Golden FNV-1a hashes of the predictions of ModelTuner's cost model under
// each objective: trained with training seed 7 on 256 random configurations
// of golden.conv measured by simulator seed 5 (noise seed = row), targets normalized to the
// best as trainModel does, every row predicted.
var goldenCostModelHashes = map[bool]uint64{
	false: 0x072e3f7757029562,
	true:  0xf691433c0865946d,
}

// TestGoldenCostModelPredictions pins the cost-model parameters autotvm,
// bted and chameleon train with, for squared-error and rank objectives.
func TestGoldenCostModelPredictions(t *testing.T) {
	task := goldenTask(t, "golden.conv", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	b := sim(5)
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	yMax := 0.0
	for i, c := range task.Space.RandomSample(256, rng) {
		m := b.MeasureSeeded(task.Workload, c, int64(i))
		g := 0.0
		if m.Valid {
			g = m.GFLOPS
		}
		X = append(X, c.Features())
		y = append(y, g)
		yMax = math.Max(yMax, g)
	}
	for i := range y {
		y[i] /= yMax
	}
	for rank, want := range goldenCostModelHashes {
		p := (&ModelTuner{RankObjective: rank}).xgbParams()
		p.Seed = 7
		model, err := xgb.Train(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		buf := make([]byte, 8)
		for _, x := range X {
			v := math.Float64bits(model.Predict(x))
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("rank objective %v: prediction hash %#016x, want golden %#016x", rank, got, want)
		}
	}
}

// sameResult reports whether two results are bit-identical in every
// observable field.
func sameResult(a, b Result) bool {
	return a.Found == b.Found &&
		a.Measurements == b.Measurements &&
		math.Float64bits(a.Best.GFLOPS) == math.Float64bits(b.Best.GFLOPS) &&
		(!a.Found || a.Best.Config.Flat() == b.Best.Config.Flat()) &&
		sameSampleStream(a.Samples, b.Samples)
}

// TestSessionTuneIdentity is the tentpole contract of the session API: for
// every tuner, opening a session and stepping it to completion — with a
// *fresh context value on every Step*, proving no ctx is stored — yields a
// Result bit-identical to the one-shot Tune call.
func TestSessionTuneIdentity(t *testing.T) {
	task := testTask(t)
	for _, tn := range goldenTuners() {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			t.Parallel()
			opts := quickOpts(48, 23)
			want, werr := Tune(context.Background(), tn, task, sim(3), opts)

			sess, err := tn.Open(task, sim(3), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			lastMeasured := 0
			for {
				ctx, cancel := context.WithCancel(context.Background())
				done, serr := sess.Step(ctx)
				cancel()
				if serr != nil {
					t.Fatalf("step %d: unexpected error: %v", steps, serr)
				}
				if m := sess.Measured(); m < lastMeasured {
					t.Fatalf("Measured went backwards: %d -> %d", lastMeasured, m)
				} else {
					lastMeasured = m
				}
				steps++
				if done {
					break
				}
				if steps > 10*opts.Budget {
					t.Fatal("session never finished")
				}
			}
			got, gerr := sess.Result()
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("error mismatch: Tune=%v session=%v", werr, gerr)
			}
			if !sameResult(want, got) {
				t.Errorf("stepwise result differs from Tune: Tune n=%d best=%v, session n=%d best=%v",
					want.Measurements, want.Best.GFLOPS, got.Measurements, got.Best.GFLOPS)
			}
			if g, ok := sess.BestGFLOPS(); want.Found && (!ok || math.Float64bits(g) != math.Float64bits(want.Best.GFLOPS)) {
				t.Errorf("BestGFLOPS = (%v, %v), want (%v, true)", g, ok, want.Best.GFLOPS)
			}

			// Result is idempotent and a finalized session cannot be stepped.
			again, aerr := sess.Result()
			if !sameResult(got, again) || (gerr == nil) != (aerr == nil) {
				t.Error("Result not idempotent")
			}
			if done, _ := sess.Step(context.Background()); !done {
				t.Error("Step after Result should report done")
			}
		})
	}
}

// TestSessionInterleaved drives one session per tuner round-robin — the
// access pattern of the graph scheduler — and checks each still produces its
// solo-run result: sessions are fully self-contained.
func TestSessionInterleaved(t *testing.T) {
	task := testTask(t)
	tuners := goldenTuners()
	opts := quickOpts(48, 29)

	want := make([]Result, len(tuners))
	for i, tn := range tuners {
		r, err := Tune(context.Background(), tn, task, sim(11), opts)
		if err != nil && !errors.Is(err, ErrNoValidConfig) {
			t.Fatal(err)
		}
		want[i] = r
	}

	sessions := make([]*Session, len(tuners))
	for i, tn := range tuners {
		s, err := tn.Open(task, sim(11), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	live := len(sessions)
	doneFlags := make([]bool, len(sessions))
	for guard := 0; live > 0; guard++ {
		if guard > 100*opts.Budget {
			t.Fatal("interleaved sessions never finished")
		}
		for i, s := range sessions {
			if doneFlags[i] {
				continue
			}
			done, err := s.Step(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", tuners[i].Name(), err)
			}
			if done {
				doneFlags[i] = true
				live--
			}
		}
	}
	for i, s := range sessions {
		got, err := s.Result()
		if err != nil && !errors.Is(err, ErrNoValidConfig) {
			t.Fatal(err)
		}
		if !sameResult(want[i], got) {
			t.Errorf("%s: interleaved result differs from solo run", tuners[i].Name())
		}
	}
}
