// Command served runs the tuning service: an HTTP/JSON daemon that accepts
// job specs, queues them FIFO through internal/job's Manager, streams live
// measurement records to subscribers, and survives being killed at any
// instant — on restart it re-admits unfinished jobs and resumes them from
// their last checkpoint, continuing the exact record stream a single
// uninterrupted run would have produced.
//
// Usage:
//
//	served -addr :8080 -store jobs -concurrency 2 -max-queue 256
//
// API (JSON unless noted):
//
//	POST   /v1/jobs              submit {"id": ..., "spec": {...}} → 201 status
//	                             (429 + Retry-After when the queue is full)
//	GET    /v1/jobs              list all job statuses
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/result  terminal result frame (409 while running)
//	GET    /v1/jobs/{id}/records snapshot of the record log (JSON lines)
//	GET    /v1/jobs/{id}/stream  live SSE record stream; ?from=N skips a prefix
//	DELETE /v1/jobs/{id}         cancel (queued: immediate; running: next batch)
//	GET    /v1/stats             fleet stats (shared measurement cache accounting)
//	GET    /healthz              liveness probe
//
// Every job's record stream is a pure function of its spec and seed: an
// omitted ID is derived from the spec, an omitted seed is derived from the
// ID, and the SSE stream replays from the start for every subscriber, so a
// late subscriber sees byte-for-byte what an early one did. The fleet-wide
// measurement cache (disable with -cache-capacity -1) shares simulator
// work between jobs on the same device without changing any stream: cache
// hits are bit-identical to re-measuring.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/job"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "jobs", "job store directory (crash-safe; survives restarts)")
	concurrency := flag.Int("concurrency", 1, "jobs tuned concurrently")
	maxQueue := flag.Int("max-queue", 0, "pending-queue cap; submits past it get 429 (0: unbounded)")
	cacheCap := flag.Int("cache-capacity", 0, "shared measurement cache entries (0: default, negative: disabled)")
	flag.Parse()

	if err := run(*addr, *storeDir, *concurrency, *maxQueue, *cacheCap); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

// Connection timeouts of the daemon's HTTP server. A client that has not
// sent its complete request headers within readHeaderTimeout is
// disconnected, so slow or stalled clients cannot pin connections, and a
// keep-alive connection idle for idleTimeout is closed. There is no write
// timeout: a /stream response stays open for as long as its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server for h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr, storeDir string, concurrency, maxQueue, cacheCap int) error {
	store, err := job.OpenStore(storeDir)
	if err != nil {
		return err
	}
	var shared *backend.SharedCache
	if cacheCap >= 0 {
		shared = backend.NewSharedCache(cacheCap)
	}
	mgr := job.NewManagerWith(store, job.ManagerOptions{
		Concurrency: concurrency,
		MaxQueue:    maxQueue,
		Shared:      shared,
	})
	// Recovery before serving: jobs a previous daemon life left queued or
	// mid-run re-enter the queue (ahead of new arrivals) and resume from
	// their last checkpoint.
	if err := mgr.Recover(); err != nil {
		return err
	}
	for _, st := range mgr.List() {
		if st.Resumed {
			log.Printf("recovered %s: resuming from checkpoint (%d records)", st.ID, st.Records)
		}
	}

	srv := newServer(addr, serve.New(mgr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (store %s, concurrency %d, max-queue %d)", addr, storeDir, concurrency, maxQueue)

	select {
	case err := <-errc:
		mgr.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting connections, then interrupt running
	// jobs so they flush their logs and checkpoints. No terminal frame is
	// written for interrupted jobs — that is what makes the next start
	// resume them.
	log.Printf("shutting down: interrupting running jobs at their next batch boundary")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	serr := srv.Shutdown(sctx)
	mgr.Close()
	if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		return serr
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
