// Package serve is the HTTP face of a job.Manager: the request routing,
// error mapping, and SSE fan-out of the tuning daemon, factored out of
// cmd/served so the repository benchmark (perfbench) can drive the real
// daemon over loopback HTTP in-process. The handlers hold no state of
// their own — every request reads or mutates the manager — so the HTTP
// layer can be rebuilt at will around any manager.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/job"
)

// Server routes the daemon's HTTP API onto a job.Manager.
type Server struct {
	mgr *job.Manager
	mux *http.ServeMux
}

// New builds the API surface over mgr.
func New(mgr *job.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/jobs/{id}/records", s.records)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok") // liveness probe; a failed write means the client left
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// httpError maps a job-layer error to its status code: bad submissions are
// the client's fault, collisions are conflicts, unknown IDs are 404s, and
// a full queue is 429 with a Retry-After hint — the admission-control
// contract that lets fleet clients back off instead of piling on.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, job.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, job.ErrExists):
		code = http.StatusConflict
	case errors.Is(err, job.ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, job.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, job.ErrBadSpec):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	sub, err := job.DecodeSubmit(r.Body)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := s.mgr.Submit(sub)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// stats reports fleet-level accounting: the shared measurement cache's
// hits/misses/entries (all-zero when the daemon runs without one).
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.mgr.SharedCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"shared_cache_enabled": ok,
		"shared_cache":         st,
	})
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	if !st.State.Terminal() || st.Result == nil {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("job %s is %s; result exists only for finished jobs", st.ID, st.State),
		})
		return
	}
	writeJSON(w, http.StatusOK, st.Result)
}

// records serves a snapshot of the job's record log as JSON lines — the
// stored wire bytes themselves, so the response is byte-identical to the
// records.jsonl a cmd/tune run of the identical spec and seed writes,
// without re-encoding a single record.
func (s *Server) records(w http.ResponseWriter, r *http.Request) {
	sub, err := s.mgr.Subscribe(r.PathValue("id"), 0)
	if err != nil {
		httpError(w, err)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/jsonl")
	for _, line := range sub.Snapshot() {
		if _, err := w.Write(line); err != nil {
			return // client went away mid-stream; nothing to recover
		}
	}
}

// stream serves the job's record stream as Server-Sent Events. Every
// subscriber replays from offset ?from (default 0: the whole log), then
// follows live until the job reaches a terminal state, which arrives as a
// final "done" event carrying the job status. Replay-from-log means a
// subscriber that connects after the job finished — even in a later daemon
// life — still receives the full, bit-identical stream.
//
// Each event's data is the record's stored wire line (sans trailing
// newline): the bytes were encoded exactly once, at append time, and every
// subscriber writes the same immutable slice — fan-out cost is framing and
// I/O, not encoding.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "from must be a non-negative integer"})
			return
		}
		from = n
	}
	id := r.PathValue("id")
	sub, err := s.mgr.Subscribe(id, from)
	if err != nil {
		httpError(w, err)
		return
	}
	defer sub.Close()

	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	seq := from
	for {
		lines, more, err := sub.Next(r.Context())
		if err != nil {
			return // client went away
		}
		for _, line := range lines {
			// One event per record, id = its zero-based log offset, data =
			// exactly the log's JSON line. A client reconnecting with
			// ?from=<last id + 1> resumes without gaps or duplicates.
			if _, werr := fmt.Fprintf(w, "id: %d\nevent: record\ndata: %s\n\n", seq, line[:len(line)-1]); werr != nil {
				return
			}
			seq++
		}
		fl.Flush()
		if !more {
			break
		}
	}
	st, err := s.mgr.Status(id)
	if err != nil {
		return
	}
	data, err := json.Marshal(st)
	if err != nil {
		return
	}
	_, _ = fmt.Fprintf(w, "event: done\ndata: %s\n\n", data) // stream teardown; the client may already be gone
	fl.Flush()
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.mgr.Cancel(id)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": ok})
}
