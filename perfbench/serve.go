package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/job"
	"repro/internal/record"
	"repro/internal/serve"
)

// daemon is the tuning service wired as cmd/served wires it: a job store,
// a manager running two jobs at once behind a 32-deep admission queue with
// the default shared measurement cache, and the HTTP API on a loopback
// port.
type daemon struct {
	mgr    *job.Manager
	srv    *http.Server
	base   string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	store, err := job.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	mgr := job.NewManagerWith(store, job.ManagerOptions{
		Concurrency: 2,
		MaxQueue:    32,
		Shared:      backend.NewSharedCache(0),
	})
	if err := mgr.Recover(); err != nil {
		mgr.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	d := &daemon{
		mgr:    mgr,
		srv:    &http.Server{Handler: serve.New(mgr)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, waits for the server
// loop to return, then shuts the manager down.
func (d *daemon) stop() {
	_ = d.srv.Close() // the only error is the listener's close error; the loop below still ends
	<-d.served
	d.mgr.Close()
}

// client is one HTTP connection to the daemon: the load comes from at
// most two of them.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches url and requires 200.
func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit POSTs one job and returns the status code and body.
func (c *client) submit(ctx context.Context, base string, j benchJob) (int, string, error) {
	payload, err := json.Marshal(job.Submit{ID: j.ID, Spec: j.Spec})
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(bytes.TrimSpace(body)), err
}

// follow reads a job's SSE stream to its done event, rebuilding the
// record log from the record events.
func (c *client) follow(ctx context.Context, base string, o *jobOut) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+o.id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", o.id, resp.StatusCode)
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		o.sseBytes += len(line) + 1
		switch {
		case line == "":
			switch event {
			case "record":
				if o.events == 0 {
					o.ttfr = time.Since(o.sent)
				}
				o.events++
				buf.WriteString(data)
				buf.WriteByte('\n')
			case "done":
				o.streamEnd = time.Now()
				o.sse = buf.Bytes()
				// Drain the rest so the connection can carry the next job.
				_, err := io.Copy(io.Discard, resp.Body)
				return err
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "id: "):
		default:
			return fmt.Errorf("stream %s: unexpected line %q", o.id, line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", o.id, err)
	}
	return fmt.Errorf("stream %s ended without a done event", o.id)
}

// servePass is what one pass of a serve workload leaves behind.
type servePass struct {
	outs    []jobOut
	listMS  []float64 // GET /v1/jobs round trips
	lateMS  []float64 // submit time minus due time (open loop)
	backlog bool      // > 10% of jobs outstanding 5 s after the last arrival
	// depthMax is the deepest pending queue seen by in-process sampling
	// (traced passes only).
	depthMax   int
	cache      backend.SharedCacheStats
	storeBytes int64 // records.jsonl files
	snapBytes  int64 // job.snap files
}

// runServe drives one pass of a serve workload through a fresh daemon
// whose store lives in dir. With a tracer it also samples the queue depth
// in-process.
func runServe(ctx context.Context, w workload, jobs []benchJob, dir string, traced bool) (*servePass, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &servePass{outs: make([]jobOut, len(jobs))}
	for i, j := range jobs {
		p.outs[i].id = j.ID
	}

	var sampler sync.WaitGroup
	stopSampling := make(chan struct{})
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
				}
				depth := 0
				for _, st := range d.mgr.List() {
					if st.State == job.StateQueued {
						depth++
					}
				}
				p.depthMax = max(p.depthMax, depth)
			}
		}()
	}
	if w.kind == kindOpen {
		err = runOpen(ctx, d.base, jobs, p)
	} else {
		err = runClosed(ctx, d.base, jobs, p)
	}
	close(stopSampling)
	sampler.Wait()
	if err != nil {
		return nil, err
	}
	return p, collect(ctx, d.base, dir, p)
}

// runOpen submits every job at its due time on one connection while a
// second connection polls the job list every 50 ms until all submitted
// jobs are terminal.
func runOpen(ctx context.Context, base string, jobs []benchJob, p *servePass) error {
	sub, poll := newClient(), newClient()
	defer sub.close()
	defer poll.close()
	// Cancelled when polling fails, so the submitter stops waiting for the
	// rest of the schedule.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	submitted := make(chan struct{})
	var subErr error
	go func() {
		defer close(submitted)
		for i, j := range jobs {
			o := &p.outs[i]
			o.due = start.Add(j.Due)
			if wait := time.Until(o.due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					subErr = ctx.Err()
					return
				case <-t.C:
				}
			}
			o.sent = time.Now()
			code, msg, err := sub.submit(ctx, base, j)
			o.submitRTT = time.Since(o.sent)
			if err != nil {
				subErr = err
				return
			}
			o.settle(code, msg)
		}
	}()

	lastDue := start.Add(jobs[len(jobs)-1].Due)
	backlogChecked := false
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	waiting := submitted
	for {
		select {
		case <-ctx.Done():
			<-submitted
			return ctx.Err()
		case <-waiting:
			waiting = nil
		case <-tick.C:
		}
		t0 := time.Now()
		body, err := poll.get(ctx, base+"/v1/jobs")
		if err != nil {
			cancel()
			<-submitted
			return err
		}
		p.listMS = append(p.listMS, float64(time.Since(t0))/1e6)
		var list []job.Status
		if err := json.Unmarshal(body, &list); err != nil {
			cancel()
			<-submitted
			return fmt.Errorf("decoding job list: %w", err)
		}
		terminal := 0
		for _, st := range list {
			if st.State.Terminal() {
				terminal++
			}
		}
		if !backlogChecked && time.Now().After(lastDue.Add(5*time.Second)) {
			backlogChecked = true
			p.backlog = 10*(len(jobs)-terminal) > len(jobs)
		}
		if waiting == nil && terminal == len(list) {
			break
		}
	}
	for _, o := range p.outs {
		if !o.sent.IsZero() {
			p.lateMS = append(p.lateMS, float64(o.sent.Sub(o.due))/1e6)
		}
	}
	return subErr
}

// runClosed runs two clients, each submitting its next job only after
// following the previous one's SSE stream to the done event on the same
// connection.
func runClosed(ctx context.Context, base string, jobs []benchJob, p *servePass) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				o := &p.outs[i]
				o.due = time.Now()
				o.sent = o.due
				code, msg, err := cl.submit(ctx, base, jobs[i])
				o.submitRTT = time.Since(o.sent)
				if err != nil {
					errs[c] = err
					return
				}
				if o.settle(code, msg); !o.accepted {
					continue
				}
				if err := cl.follow(ctx, base, o); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// settle classifies a submission's response.
func (o *jobOut) settle(code int, msg string) {
	switch code {
	case http.StatusCreated:
		o.accepted = true
	case http.StatusTooManyRequests:
		o.rejected = true
		o.err = "refused by admission control (429)"
	default:
		o.err = fmt.Sprintf("submit: %d: %s", code, msg)
	}
}

// collect reads back every accepted job's final status and record log,
// the cache accounting, and the store's size on disk.
func collect(ctx context.Context, base, dir string, p *servePass) error {
	c := newClient()
	defer c.close()
	body, err := c.get(ctx, base+"/v1/jobs")
	if err != nil {
		return err
	}
	var list []job.Status
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("decoding job list: %w", err)
	}
	byID := make(map[string]job.Status, len(list))
	for _, st := range list {
		byID[st.ID] = st
	}
	for i := range p.outs {
		o := &p.outs[i]
		if !o.accepted {
			continue
		}
		st, ok := byID[o.id]
		switch {
		case !ok:
			o.err = "accepted but missing from the job list"
			continue
		case st.State != job.StateDone:
			o.err = fmt.Sprintf("ended %s: %s", st.State, st.Error)
			continue
		case st.StartedAt == nil || st.FinishedAt == nil || st.Result == nil:
			o.err = "done without start/finish timestamps or a result"
			continue
		}
		o.submitted, o.start, o.end = st.SubmittedAt, *st.StartedAt, *st.FinishedAt
		o.deployMS = st.Result.LatencyMS
		if o.log, err = c.get(ctx, base+"/v1/jobs/"+o.id+"/records"); err != nil {
			return err
		}
		o.ok = true
	}

	body, err = c.get(ctx, base+"/v1/stats")
	if err != nil {
		return err
	}
	var stats struct {
		SharedCache backend.SharedCacheStats `json:"shared_cache"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("decoding stats: %w", err)
	}
	p.cache = stats.SharedCache

	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		switch e.Name() {
		case "records.jsonl":
			p.storeBytes += info.Size()
		case "job.snap":
			p.snapBytes += info.Size()
		}
		return nil
	})
}

// serveLayers sets the per-layer metrics of a traced serve pass and
// records its spans.
func serveLayers(r *report, p *servePass, tr *tracer) error {
	var queue, run, submit, ttfr []float64
	valid, lines, bytesOut, events, sseBytes, rejected := 0, 0, 0, 0, 0, 0
	for _, o := range p.outs {
		submit = append(submit, float64(o.submitRTT)/1e6)
		if o.rejected {
			rejected++
		}
		if !o.ok {
			continue
		}
		queue = append(queue, o.start.Sub(o.submitted).Seconds())
		run = append(run, o.end.Sub(o.start).Seconds())
		recs, err := record.Read(bytes.NewReader(o.log))
		if err != nil {
			return fmt.Errorf("job %s: %w", o.id, err)
		}
		for _, rec := range recs {
			if rec.Valid {
				valid++
			}
		}
		lines += len(recs)
		bytesOut += len(o.log)
		events += o.events
		sseBytes += o.sseBytes
		if o.events > 0 {
			ttfr = append(ttfr, float64(o.ttfr)/1e6)
		}
		root := tr.add(0, o.id, "job", o.due, o.end)
		tr.add(root, o.id, "serve.submit", o.sent, o.sent.Add(o.submitRTT))
		tr.add(root, o.id, "job.queue", o.submitted, o.start)
		tr.add(root, o.id, "job.run", o.start, o.end)
		if !o.streamEnd.IsZero() {
			tr.add(root, o.id, "serve.stream", o.sent.Add(o.submitRTT), o.streamEnd)
		}
	}
	r.set("backend.measure_calls", float64(p.cache.Misses))
	r.set("backend.cache_hit_frac", p.cache.HitRate())
	r.set("backend.cache_misses", float64(p.cache.Misses))
	r.set("backend.cache_evictions", float64(p.cache.Evictions))
	if lines > 0 {
		r.set("tuner.valid_frac", float64(valid)/float64(lines))
	} else {
		r.set("tuner.valid_frac", 0)
	}
	r.set("record.lines", float64(lines))
	r.set("record.bytes", float64(bytesOut))
	r.set("job.queue_wait_p50_s", medianOr0(queue))
	r.set("job.queue_depth_max", float64(p.depthMax))
	r.set("job.run_p50_s", medianOr0(run))
	r.set("job.store_mb", float64(p.storeBytes)/(1<<20))
	r.set("job.snap_mb", float64(p.snapBytes)/(1<<20))
	r.set("serve.submit_p50_ms", medianOr0(submit))
	r.set("serve.rejected", float64(rejected))
	r.set("serve.list_p50_ms", medianOr0(p.listMS))
	r.set("serve.ttfr_p50_ms", medianOr0(ttfr))
	r.set("serve.sse_events", float64(events))
	r.set("serve.sse_mb", float64(sseBytes)/(1<<20))
	r.set("bench.generator_late_p50_ms", medianOr0(p.lateMS))
	r.set("bench.generator_late_max_ms", maxOr0(p.lateMS))
	for _, name := range []string{
		"backend.measure_busy_ms", "backend.netlat_busy_ms",
		"tuner.init_set_ms", "tuner.surrogate_train_ms", "tuner.candidate_selection_ms", "tuner.measurement_ms",
		"active.bootstrap_train_calls", "active.bootstrap_train_cpu_ms", "sched.unattributed_ms",
		"record.append_busy_ms",
	} {
		r.set(name, 0)
	}
	return nil
}

// verifyServe checks one pass's outputs: every job done, every streamed
// log equal to the stored one, and every job stamped from one
// (spec, seed) template serving the same bytes.
func verifyServe(r *report, jobs []benchJob, p *servePass) {
	first := map[string]int{}
	for i, o := range p.outs {
		r.check(o.ok, "job %s: %s", o.id, o.err)
		if !o.ok {
			continue
		}
		if o.sse != nil {
			r.check(bytes.Equal(o.sse, o.log), "job %s: SSE stream (%d bytes) differs from /records (%d bytes)", o.id, len(o.sse), len(o.log))
		}
		if jobs[i].Spec.Seed == 0 {
			continue // seed derived from the ID: no two jobs share a stream
		}
		if k, seen := first[jobs[i].Template]; seen {
			r.check(bytes.Equal(o.log, p.outs[k].log), "job %s: /records differs from job %s of the same template", o.id, p.outs[k].id)
		} else {
			first[jobs[i].Template] = i
		}
	}
}

// verifyAgainstRun re-runs the first done job of each template in-process
// with job.Run and requires the daemon to have served the same bytes.
func verifyAgainstRun(ctx context.Context, r *report, jobs []benchJob, p *servePass, dir string) {
	seen := map[string]bool{}
	for i, o := range p.outs {
		tpl := jobs[i].Template
		if !o.ok || seen[tpl] {
			continue
		}
		seen[tpl] = true
		spec := jobs[i].Spec
		spec.Seed = job.EffectiveSeed(o.id, spec)
		ref := jobOut{id: o.id}
		path := filepath.Join(dir, o.id+".ref.jsonl")
		res, err := job.Run(ctx, spec, job.RunOptions{LogPath: path})
		ref.finish(spec, res, err, path)
		r.check(ref.ok && bytes.Equal(ref.log, o.log), "job %s: /records (%d bytes) differs from an in-process job.Run (%d bytes) %s", o.id, len(o.log), len(ref.log), ref.err)
	}
}
