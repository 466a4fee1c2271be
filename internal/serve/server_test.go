package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/job"
)

func testSpec(seed int64) job.Spec {
	return job.Spec{
		Model: "mobilenet-v1", Tuner: "random", Device: "gtx1080ti", Ops: "conv",
		Seed: seed, Budget: 96, EarlyStop: -1, PlanSize: 8, Runs: 1,
		Workers: 1, TaskConcurrency: 1, BudgetPolicy: "uniform",
	}
}

// post submits one job and returns the response (body closed, decoded into
// errBody when non-2xx).
func post(t *testing.T, url, id string, spec job.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(job.Submit{ID: id, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSubmit429PastQueueCap is the HTTP face of admission control: once the
// pending queue is at -max-queue, POST /v1/jobs answers 429 Too Many
// Requests with a Retry-After hint and a JSON error body, and a retry after
// the queue drains succeeds.
func TestSubmit429PastQueueCap(t *testing.T) {
	store, err := job.OpenStore(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := job.NewManagerWith(store, job.ManagerOptions{Concurrency: 1, MaxQueue: 1})
	defer mgr.Close()
	srv := httptest.NewServer(New(mgr))
	defer srv.Close()

	// First job occupies the single worker, second fills the queue.
	resp := post(t, srv.URL, "run-1", testSpec(4001))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d, want 201", resp.StatusCode)
	}
	resp = post(t, srv.URL, "q-1", testSpec(4002))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("queued submit: %d, want 201", resp.StatusCode)
	}

	resp = post(t, srv.URL, "q-2", testSpec(4003))
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past cap: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody.Error == "" {
		t.Fatalf("429 body not a JSON error: err=%v body=%+v", err, errBody)
	}

	// Draining the queue (cancel the waiting job) makes room; the retried
	// submission is admitted — the 429 was back-pressure, not a ban.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/q-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job: %d, want 200", del.StatusCode)
	}
	resp2 := post(t, srv.URL, "q-2", testSpec(4003))
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("retry after drain: %d, want 201", resp2.StatusCode)
	}
}

// TestStatsEndpoint checks /v1/stats reports the shared cache truthfully in
// both configurations.
func TestStatsEndpoint(t *testing.T) {
	get := func(t *testing.T, url string) (enabled bool, stats backend.SharedCacheStats) {
		t.Helper()
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var body struct {
			Enabled bool                     `json:"shared_cache_enabled"`
			Cache   backend.SharedCacheStats `json:"shared_cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Enabled, body.Cache
	}

	store, err := job.OpenStore(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	plain := job.NewManagerWith(store, job.ManagerOptions{Concurrency: 1})
	defer plain.Close()
	srvPlain := httptest.NewServer(New(plain))
	defer srvPlain.Close()
	if enabled, _ := get(t, srvPlain.URL); enabled {
		t.Fatal("cache-less daemon reported shared_cache_enabled")
	}

	store2, err := job.OpenStore(filepath.Join(t.TempDir(), "b"))
	if err != nil {
		t.Fatal(err)
	}
	cached := job.NewManagerWith(store2, job.ManagerOptions{
		Concurrency: 1,
		Shared:      backend.NewSharedCache(0),
	})
	defer cached.Close()
	srvCached := httptest.NewServer(New(cached))
	defer srvCached.Close()
	enabled, stats := get(t, srvCached.URL)
	if !enabled {
		t.Fatal("cached daemon reported shared_cache_enabled=false")
	}
	if stats.Capacity != backend.DefaultSharedCacheCapacity {
		t.Fatalf("stats capacity %d, want default %d", stats.Capacity, backend.DefaultSharedCacheCapacity)
	}
}
