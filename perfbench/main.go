// Command perfbench is the repository benchmark: it runs one workload
// against the tuner or the tuning daemon, checks the outputs, and prints
// every metric as "name value unit" followed by a one-line JSON result.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tune-bao --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// workload untraced and then again with probes around the calls into each
// layer, and reports the per-layer metrics. --workload all runs every
// workload in its own process and merges the results. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runLimit bounds a whole run: the benchmark must exit within 180 s.
const runLimit = 170 * time.Second

// setupRuns is how many fresh processes setup_s takes the median of,
// after one more that pages the binary in and is not counted.
const setupRuns = 9

// sloSeconds is the latency limit within_slo_frac counts against.
const sloSeconds = 2.0

//go:embed testdata/golden.json
var goldenJSON []byte

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	smoke     bool
	workdir   string
	setupOnly bool
}

func (c config) args(workload string) []string {
	scale := "full"
	if c.smoke {
		scale = "smoke"
	}
	return []string{"--workload", workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.Itoa(c.seconds), "--trace", strconv.Itoa(c.trace),
		"--scale", scale, "--workdir", c.workdir}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var cfg config
	var scale string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "tune-bao | tune-sa | serve-unique | serve-repeat | all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives job IDs, job seeds, template order and arrival times")
	fs.IntVar(&cfg.seconds, "seconds", 20, "run length the full-scale workloads are sized to")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	fs.StringVar(&scale, "scale", "full", "full | smoke (tiny jobs, for tests)")
	fs.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for job stores, record logs and the span file")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set the workload up, print \"ready\", tear down and exit (how setup_s is timed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if scale != "full" && scale != "smoke" {
		fmt.Fprintln(os.Stderr, "perfbench: --scale must be full or smoke")
		return 2
	}
	cfg.smoke = scale == "smoke"

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.workload == "all" {
		return runAll(ctx, cfg, stdout)
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	jobs, err := generate(w, cfg.seed, cfg.seconds, cfg.smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if cfg.setupOnly {
		if err := setUp(ctx, w, dir, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%d trace=%d scale=%s jobs=%d NumCPU=%d GOMAXPROCS=%d %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, scale, len(jobs), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(stdout, "# WARNING: NumCPU < 2: the daemon's two job slots and the load generator share one core")
	}
	r, err := runWorkload(ctx, cfg, w, jobs, dir, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	if err := r.write(stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// jobOut is what one job left behind, whichever path ran it.
type jobOut struct {
	id  string
	ok  bool
	err string
	// log is the job's record stream: the log job.Run wrote, or the
	// daemon's /records.
	log      []byte
	deployMS float64
	// due is when the job was wanted; start and end bound its tuning (for
	// in-process runs start is due). sent is when it was submitted and
	// submitted when the daemon admitted it.
	due, sent, submitted, start, end time.Time
	submitRTT                        time.Duration
	accepted, rejected               bool
	// taskS is each task's tuning wall time in seconds, by task index
	// (in-process runs only).
	taskS []float64
	// Closed-loop stream reads: the records rebuilt from the SSE events,
	// the event count, the bytes read, the time from submit to the first
	// record event, and when the done event arrived.
	sse       []byte
	events    int
	sseBytes  int
	ttfr      time.Duration
	streamEnd time.Time
}

// runWorkload measures set-up (untraced runs only), runs the workload,
// checks every output, and fills the report.
func runWorkload(ctx context.Context, cfg config, w workload, jobs []benchJob, dir string, stdout io.Writer) (*report, error) {
	r := newReport()
	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	} else {
		s, err := measureSetup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("measuring setup: %w", err)
		}
		r.set("setup_s", s)
	}
	var err error
	if w.kind == kindTune {
		err = runTuneWorkload(ctx, r, cfg, w, jobs, dir, tr, stdout)
	} else {
		err = runServeWorkload(ctx, r, cfg, w, jobs, dir, tr, stdout)
	}
	return r, err
}

func runTuneWorkload(ctx context.Context, r *report, cfg config, w workload, jobs []benchJob, dir string, tr *tracer, stdout io.Writer) error {
	plain, traced, probes, err := runTunePasses(ctx, jobs, dir, tr)
	if err != nil {
		return err
	}
	if err := finishRun(r, stdout, cfg, w, jobs, plain); err != nil {
		return err
	}
	for _, o := range plain {
		r.check(o.ok, "job %s: %s", o.id, o.err)
	}
	if tr == nil {
		return nil
	}
	verifyTune(r, plain, traced)
	tuneLayers(r, traced, probes, tr)
	describeTune(stdout, traced, probes)
	return writeSpans(r, stdout, cfg, w, tr, plain, traced)
}

func runServeWorkload(ctx context.Context, r *report, cfg config, w workload, jobs []benchJob, dir string, tr *tracer, stdout io.Writer) error {
	sp, err := runServe(ctx, w, jobs, filepath.Join(dir, "plain"), false)
	if err != nil {
		return err
	}
	if err := finishRun(r, stdout, cfg, w, jobs, sp.outs); err != nil {
		return err
	}
	if tr == nil {
		describeServe(stdout, sp)
	}
	verifyServe(r, jobs, sp)
	verifyAgainstRun(ctx, r, jobs, sp, dir)
	if tr == nil {
		return nil
	}
	mem := readMem()
	tp, err := runServe(ctx, w, jobs, filepath.Join(dir, "traced"), true)
	if err != nil {
		return err
	}
	goLayers(r, memSince(mem))
	verifyServe(r, jobs, tp)
	for i, o := range tp.outs {
		r.check(bytes.Equal(o.log, sp.outs[i].log), "job %s: traced pass served other records than the untraced pass", o.id)
	}
	if err := serveLayers(r, tp, tr); err != nil {
		return err
	}
	return writeSpans(r, stdout, cfg, w, tr, sp.outs, tp.outs)
}

// finishRun takes what every untraced pass reports: the end-to-end
// metrics (peak RSS first, before any checking allocates), the latency
// distribution, and the golden stream hash.
func finishRun(r *report, stdout io.Writer, cfg config, w workload, jobs []benchJob, plain []jobOut) error {
	if cfg.trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		endToEndMetrics(r, w, jobs, plain, rss)
		describeLatency(stdout, plain)
	}
	checkGolden(r, stdout, cfg, w, plain)
	return nil
}

// writeSpans sets the tracing overhead and writes the spans out.
func writeSpans(r *report, stdout io.Writer, cfg config, w workload, tr *tracer, plain, traced []jobOut) error {
	r.set("bench.trace_overhead_frac", latencySum(traced)/latencySum(plain)-1)
	path := filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return nil
}

// endToEndMetrics sets the user-facing metrics from an untraced pass.
func endToEndMetrics(r *report, w workload, jobs []benchJob, outs []jobOut, rssMB float64) {
	var run, lat, deploy []float64
	for _, o := range outs {
		if o.ok {
			run = append(run, o.end.Sub(o.start).Seconds())
			lat = append(lat, o.end.Sub(o.due).Seconds())
			deploy = append(deploy, o.deployMS)
		}
	}
	if w.kind == kindTune {
		// One client running jobs back to back: a job's latency is its
		// wall time.
		t := typicalWall(jobs, outs)
		r.set("tune_wall_s", t)
		r.set("job_latency_p50_s", t)
	} else {
		r.set("tune_wall_s", medianOr0(run))
		r.set("job_latency_p50_s", medianOr0(lat))
	}
	g, err := geomean(deploy)
	if err != nil {
		g = 0
	}
	r.set("deploy_latency_ms", g)
	r.set("peak_rss_mb", rssMB)
}

// describeLatency prints the distribution behind the latency median: the
// sample count, the highest tail percentile the sample supports, and the
// quartile spread.
func describeLatency(stdout io.Writer, outs []jobOut) {
	var lat []float64
	for _, o := range outs {
		if o.ok {
			lat = append(lat, o.end.Sub(o.due).Seconds())
		}
	}
	tail := "no tail percentile has 10 samples beyond it"
	if p, v, ok := highestTail(lat); ok {
		tail = fmt.Sprintf("p%g %.4g s", p, v)
	}
	spread := "n/a"
	if s, err := iqrShare(lat); err == nil {
		spread = fmt.Sprintf("%.3f", s)
	}
	fmt.Fprintf(stdout, "# job latency: n=%d of %d, p50 %.4g s, %s, IQR/median %s\n", len(lat), len(outs), medianOr0(lat), tail, spread)
}

// describeServe prints how a serve pass kept its schedule and its latency
// limit: the share of jobs finished within sloSeconds of their due time (a
// refused or failed job misses it), the generator's lateness, and whether
// a backlog grew.
func describeServe(stdout io.Writer, sp *servePass) {
	within := 0
	for _, o := range sp.outs {
		if o.ok && o.end.Sub(o.due).Seconds() <= sloSeconds {
			within++
		}
	}
	fmt.Fprintf(stdout, "# within_slo_frac %.4g (finished within %.1f s of due, of %d attempted)\n", float64(within)/float64(len(sp.outs)), sloSeconds, len(sp.outs))
	fmt.Fprintf(stdout, "# cache hit rate %.3f (%d hits, %d misses)\n", sp.cache.HitRate(), sp.cache.Hits, sp.cache.Misses)
	if len(sp.lateMS) > 0 {
		fmt.Fprintf(stdout, "# generator lateness: p50 %.3f ms, max %.3f ms\n", medianOr0(sp.lateMS), maxOr0(sp.lateMS))
	}
	if sp.backlog {
		fmt.Fprintln(stdout, "# UNRESOLVED: more than 10% of jobs were outstanding 5 s after the last arrival (a growing backlog); the latency metrics do not describe a steady state")
	}
}

func goLayers(r *report, d memDelta) {
	r.set("go.alloc_mb", d.allocMB)
	r.set("go.gc_cycles", d.gcCycles)
	r.set("go.gc_pause_ms", d.gcPauseMS)
}

// latencySum adds up the done jobs' latencies, in seconds.
func latencySum(outs []jobOut) float64 {
	s := 0.0
	for _, o := range outs {
		if o.ok {
			s += o.end.Sub(o.due).Seconds()
		}
	}
	return s
}

// checkGolden compares the concatenated record streams against the hash
// committed for this workload, seed and size, when there is one.
func checkGolden(r *report, stdout io.Writer, cfg config, w workload, outs []jobOut) {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.log) // hash.Hash.Write never returns an error
	}
	got := hex.EncodeToString(h.Sum(nil))[:32]
	fmt.Fprintf(stdout, "# stream_hash %s\n", got)
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		r.check(false, "testdata/golden.json: %v", err)
		return
	}
	want, ok := golden[goldenKey(cfg, w)]
	if !ok {
		return
	}
	r.check(got == want, "record streams hash to %s, golden %s is %s", got, goldenKey(cfg, w), want)
}

func goldenKey(cfg config, w workload) string {
	if cfg.smoke {
		return fmt.Sprintf("%s seed=%d smoke", w.name, cfg.seed)
	}
	return fmt.Sprintf("%s seed=%d seconds=%d", w.name, cfg.seed, cfg.seconds)
}

// measureSetup times setupRuns fresh processes from exec until they report
// the workload set up, and returns the median in seconds: process start,
// package initialization and the workload's own set-up, as a user pays
// them on every start.
func measureSetup(ctx context.Context, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 0, setupRuns+1)
	for i := 0; i <= setupRuns; i++ {
		cmd := exec.CommandContext(ctx, exe, append(cfg.args(cfg.workload), "--setup-only")...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(t0)
		if _, err := io.Copy(io.Discard, out); err != nil && rerr == nil {
			rerr = err
		}
		if werr := cmd.Wait(); werr != nil {
			return 0, werr
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup process printed %q: %v", line, rerr)
		}
		samples = append(samples, elapsed.Seconds())
	}
	return median(samples[1:])
}

// setUp is the --setup-only body: everything a run does before its first
// timed operation. A tune workload is ready once its jobs are generated; a
// serve workload once the daemon answers its health check.
func setUp(ctx context.Context, w workload, dir string, stdout io.Writer) error {
	if w.kind == kindTune {
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient()
	defer c.close()
	if _, err := c.get(ctx, d.base+"/healthz"); err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, "ready")
	return err
}

// runAll runs every workload in its own process, passes their output
// through, and prints one merged result line with metrics keyed
// "<workload>.<metric>".
func runAll(ctx context.Context, cfg config, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	merged := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, cfg.args(w.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		var res resultLine
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s printed no result (%v)\n", w.name, errors.Join(err, jerr))
			return 1
		}
		if err != nil {
			code = 1
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for name, v := range res.Metrics {
			merged.Metrics[w.name+"."+name] = v
		}
	}
	buf, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return code
}
