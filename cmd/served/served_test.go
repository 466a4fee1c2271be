package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

func tinySpec(seed int64) job.Spec {
	return job.Spec{
		Model: "mobilenet-v1", Tuner: "autotvm", Device: "gtx1080ti", Ops: "conv",
		Seed: seed, Budget: 16, EarlyStop: -1, PlanSize: 8, Runs: 20, Workers: 2,
		TaskConcurrency: 1, BudgetPolicy: "uniform",
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses events off an SSE stream until stop returns true or the
// stream ends.
func readSSE(t *testing.T, r io.Reader, stop func(ev sseEvent) bool) []sseEvent {
	t.Helper()
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				evs = append(evs, cur)
				if stop(cur) {
					return evs
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return evs
}

// recordData joins the record events back into JSON-lines form — the exact
// byte layout of a records.jsonl file.
func recordData(evs []sseEvent) []byte {
	var buf bytes.Buffer
	for _, ev := range evs {
		if ev.event == "record" {
			buf.WriteString(ev.data)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func submitBody(t *testing.T, id string, spec job.Spec) io.Reader {
	t.Helper()
	data, err := json.Marshal(job.Submit{ID: id, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// TestServedCrashResumeCheckpoint is the end-to-end daemon rehearsal: a job
// submitted over HTTP is killed mid-round by daemon shutdown, a second
// daemon over the same store recovers and finishes it, and a late SSE
// subscriber's replayed stream must be byte-identical to the record log an
// uninterrupted direct run of the same Spec and seed produces.
func TestServedCrashResumeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2041)
	spec.Budget = 48

	refLog := filepath.Join(dir, "ref.jsonl")
	if _, err := job.Run(context.Background(), spec, job.RunOptions{LogPath: refLog}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refBytes, err := os.ReadFile(refLog)
	if err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(dir, "jobs")
	store1, err := job.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := job.NewManagerWith(store1, job.ManagerOptions{Concurrency: 1})
	ts1 := httptest.NewServer(serve.New(mgr1))

	const id = "crash-1"
	resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json", submitBody(t, id, spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// Wait until the job is resumable (a checkpoint frame on disk, a batch
	// of records out), then kill the daemon. The resumability probe goes
	// straight to the store and manager: on a small machine the CPU-bound
	// run starves the HTTP goroutines, and a probe routed through the
	// server would often not land until the job had already finished.
	for {
		st, err := mgr1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() || st.State == job.StateQueued && st.Records > 0 {
			t.Fatalf("job reached %s before the shutdown fired; raise the spec budget", st.State)
		}
		cp, _, cerr := job.LoadSnap(store1.SnapPath(id))
		if cerr == nil && cp != nil && st.Records >= spec.PlanSize {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mgr1.Close() // daemon shutdown: interrupt, flush, no terminal frame
	ts1.Close()

	if st, err := mgr1.Status(id); err != nil || st.State != job.StateQueued {
		t.Fatalf("job after shutdown = %+v, %v; want queued (resumable) — raise the spec budget", st, err)
	}

	// Second daemon life over the same store.
	store2, err := job.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := job.NewManagerWith(store2, job.ManagerOptions{Concurrency: 1})
	if err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	ts2 := httptest.NewServer(serve.New(mgr2))
	defer ts2.Close()

	var st job.Status
	getJSON(t, ts2.URL+"/v1/jobs/"+id, http.StatusOK, &st)
	if !st.Resumed {
		t.Fatalf("recovered job not marked resumed: %+v", st)
	}

	// A late subscriber replays from the start and follows to completion;
	// the stream is the full record log, byte for byte.
	stream2, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, stream2.Body, func(ev sseEvent) bool { return ev.event == "done" })
	stream2.Body.Close()
	if got := recordData(evs); !bytes.Equal(got, refBytes) {
		t.Fatalf("replayed SSE stream differs from uninterrupted run: %d vs %d bytes", len(got), len(refBytes))
	}
	last := evs[len(evs)-1]
	if last.event != "done" {
		t.Fatalf("stream ended with %q, want done", last.event)
	}
	var final job.Status
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != job.StateDone || final.Result == nil {
		t.Fatalf("done event carries %+v", final)
	}

	// The records endpoint and the on-disk log agree with the reference too.
	rresp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/records")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, refBytes) {
		t.Fatalf("records endpoint differs from reference log: %d vs %d bytes", len(body), len(refBytes))
	}
	onDisk, err := os.ReadFile(store2.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, refBytes) {
		t.Fatalf("served record log differs from reference: %d vs %d bytes", len(onDisk), len(refBytes))
	}
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, body, wantCode)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, body)
		}
	}
}

// TestServedAPI covers the request/response surface: submission validation
// codes, status and result codes across the job lifecycle, cancellation,
// and the SSE from-offset replay.
func TestServedAPI(t *testing.T) {
	store, err := job.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := job.NewManagerWith(store, job.ManagerOptions{Concurrency: 1})
	defer mgr.Close()
	ts := httptest.NewServer(serve.New(mgr))
	defer ts.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}

	if code, body := post(`{"model": "nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad model = %d (%s), want 400", code, body)
	}
	if code, body := post(`{"model": "mobilenet-v1", "budgetz": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d (%s), want 400", code, body)
	}
	getJSON(t, ts.URL+"/v1/jobs/ghost", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	spec, err := json.Marshal(job.Submit{ID: "api-1", Spec: tinySpec(2042)})
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(string(spec))
	if code != http.StatusCreated {
		t.Fatalf("submit = %d (%s)", code, body)
	}
	var st job.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "api-1" || st.Seed != 2042 {
		t.Errorf("submit status = %+v", st)
	}
	if code, _ := post(string(spec)); code != http.StatusConflict {
		t.Errorf("duplicate submit = %d, want 409", code)
	}

	// Stream to completion, then re-fetch from an offset: the suffix replay
	// must line up with the full stream.
	stream, err := http.Get(ts.URL + "/v1/jobs/api-1/stream")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, stream.Body, func(ev sseEvent) bool { return ev.event == "done" })
	stream.Body.Close()
	full := recordData(evs)
	n := bytes.Count(full, []byte("\n"))
	if n == 0 {
		t.Fatal("stream carried no records")
	}

	from := n - 3
	stream2, err := http.Get(fmt.Sprintf("%s/v1/jobs/api-1/stream?from=%d", ts.URL, from))
	if err != nil {
		t.Fatal(err)
	}
	tailEvs := readSSE(t, stream2.Body, func(ev sseEvent) bool { return ev.event == "done" })
	stream2.Body.Close()
	tail := recordData(tailEvs)
	lines := bytes.SplitAfter(full, []byte("\n"))
	want := bytes.Join(lines[from:], nil)
	if !bytes.Equal(tail, want) {
		t.Fatalf("from=%d replay differs from the full stream's suffix", from)
	}
	if first := tailEvs[0]; first.event == "record" && first.id != fmt.Sprint(from) {
		t.Errorf("first replayed event id = %s, want %d", first.id, from)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/api-1/stream?from=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus from = %v, %v; want 400", resp.StatusCode, err)
	}

	var res job.Result
	getJSON(t, ts.URL+"/v1/jobs/api-1/result", http.StatusOK, &res)
	if res.State != job.StateDone || res.Records != n {
		t.Errorf("result = %+v, want done with %d records", res, n)
	}
	var list []job.Status
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != "api-1" {
		t.Errorf("list = %+v", list)
	}

	// Cancel: terminal jobs report canceled=false; a fresh queued job (the
	// manager is busy with nothing, so it starts running) cancels true.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/api-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelOut struct {
		Canceled bool `json:"canceled"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cancelOut); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || cancelOut.Canceled {
		t.Errorf("cancel of a finished job = %d %+v, want 200 canceled=false", cresp.StatusCode, cancelOut)
	}
}
