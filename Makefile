GO ?= go

.PHONY: all build test race determinism bench bench-smoke bench-check serve-smoke serve-bench cover perfbench-test lint lint-sarif fmt-check verify

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent measurement machinery
# (hwsim.Simulator, transfer.History, the tuner worker pool, par,
# the backend wrappers, the graph scheduler, parallel bootstrap training
# and Gram assembly, parallel SA chains, the job manager's record fan-out
# and the daemon's SSE subscribers).
race:
	$(GO) test -race ./internal/hwsim ./internal/transfer ./internal/tuner ./internal/active ./internal/linalg ./internal/par ./internal/backend ./internal/sched ./internal/xgb ./internal/gp ./internal/sa ./internal/job ./internal/serve ./cmd/served

# Determinism suite under the race detector: same seed, Workers 1/4/8
# must yield bit-identical samples for every tuner, a cancelled or
# deadline-expired run must return a bit-identical prefix of them, and
# the graph scheduler's outcomes must be invariant across the whole
# Workers {1,4,8} x task-concurrency {1,2,4} grid (sched tests plus the
# pipeline-level golden and invariance checks in internal/core). The
# kernel-level invariance tests ride the same regex: TED/mat-vec/Cholesky
# (linalg, active), xgb split search + PredictBatch, and the GP kernel
# build must be bit-identical for any worker count, and the SIMD lane
# kernels must match the portable reference bit for bit. Parallel SA
# chains join through internal/sa (plain and delta objectives, Workers
# 1/4/8) and the tuner-level SAChains sample-stream invariance test.
# Checkpoint|Snapshot pulls in the serializable-session layer: snapshot →
# restore → continue must be bit-identical for every tuner, for the
# scheduler across its Workers x task-concurrency grid, and for the
# crash-resume rehearsals of the whole job lifecycle — the runner killed
# at a checkpoint boundary (internal/job), the manager shut down mid-job
# and recovered, and a served job whose daemon is killed and restarted
# (cmd/served) — each of which must leave a record log byte-identical to
# an uninterrupted run.
determinism:
	$(GO) test -race -run 'WorkerCountInvariance|Parallel|Concurrent|Seeded|NoiseSeed|Cancel|Deadline|ForContext|Golden|Session|Invariance|SequentialMatches|Checkpoint|Snapshot' \
		./internal/tuner ./internal/active ./internal/linalg ./internal/hwsim ./internal/par ./internal/backend ./internal/sched ./internal/core ./internal/xgb ./internal/gp ./internal/sa ./internal/snap ./internal/rng ./internal/job ./cmd/tune ./cmd/served

# Benchmark smoke pass: every committed benchmark must still compile and
# run (one iteration; not a timing source).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run XXXBENCHXXX ./...

# Serial-vs-parallel wall clock on a fixed 8-task tuning run through the
# graph scheduler; also fails if the two legs' samples diverge. Writes
# BENCH_tune.json.
bench:
	$(GO) run ./cmd/bench -out BENCH_tune.json

# Regression gate against the committed report: a fresh run (written to
# /tmp, the committed BENCH_tune.json is left alone) must not regress
# the serial candidate_selection phase beyond -max-regress (default 3x;
# generous because shared CI hosts are noisy), and the two legs'
# samples must still be identical.
bench-check:
	$(GO) run ./cmd/bench -out /tmp/BENCH_check.json -baseline BENCH_tune.json

# End-to-end smoke of the real daemon binary: start cmd/served on a
# loopback port, submit a small job over HTTP, wait for it to finish,
# and require the served record stream to be byte-identical to a
# cmd/tune run of the same spec and seed. Override the port with
# SERVE_SMOKE_ADDR if 18231 is taken.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18231
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/served ./cmd/served; \
	$$tmp/served -addr $(SERVE_SMOKE_ADDR) -store $$tmp/jobs & pid=$$!; \
	trap "kill $$pid 2>/dev/null; rm -rf $$tmp" EXIT; \
	up=0; for i in $$(seq 1 50); do \
		curl -fs http://$(SERVE_SMOKE_ADDR)/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.2; \
	done; \
	[ "$$up" = 1 ] || { echo "serve-smoke: daemon never came up on $(SERVE_SMOKE_ADDR)"; exit 1; }; \
	curl -fs -X POST http://$(SERVE_SMOKE_ADDR)/v1/jobs \
		-d '{"id":"smoke-1","model":"mobilenet-v1","tuner":"autotvm","ops":"conv","seed":1,"budget":16,"early_stop":-1,"plan_size":8,"runs":20}' >/dev/null; \
	state=pending; for i in $$(seq 1 150); do \
		state=$$(curl -fs http://$(SERVE_SMOKE_ADDR)/v1/jobs/smoke-1 | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1); \
		[ "$$state" = done ] && break; sleep 0.2; \
	done; \
	[ "$$state" = done ] || { echo "serve-smoke: job state '$$state', want done"; exit 1; }; \
	curl -fs http://$(SERVE_SMOKE_ADDR)/v1/jobs/smoke-1/result | grep -q '"state": *"done"' || \
		{ echo "serve-smoke: result endpoint did not report done"; exit 1; }; \
	curl -fs http://$(SERVE_SMOKE_ADDR)/v1/jobs/smoke-1/records > $$tmp/served.jsonl; \
	n=$$(wc -l < $$tmp/served.jsonl); \
	[ "$$n" -gt 0 ] || { echo "serve-smoke: no records streamed"; exit 1; }; \
	$(GO) run ./cmd/tune -model mobilenet-v1 -tuner autotvm -ops conv -seed 1 \
		-budget 16 -earlystop -1 -plan 8 -runs 20 -log $$tmp/tune.jsonl >/dev/null; \
	cmp $$tmp/served.jsonl $$tmp/tune.jsonl || \
		{ echo "serve-smoke: served record stream differs from cmd/tune's for the same spec/seed"; exit 1; }; \
	echo "serve-smoke: ok ($$n records, byte-identical to cmd/tune)"

# Serving-throughput benchmark gated against the committed report: a
# small fleet (12 jobs — the committed BENCH_served.json is a 64-job run
# and is left alone) through the real daemon over loopback HTTP, once
# with the shared measurement cache off and once on. The gate is
# size-independent: per-job record logs must stay byte-identical between
# the legs, the cache must actually hit, and the cache speedup must not
# collapse below baseline / -max-regress (default 3; CI hosts are noisy).
serve-bench:
	$(GO) run ./cmd/bench -served -served-jobs 12 -out /tmp/BENCH_served_check.json -baseline BENCH_served.json

# Coverage gates: the scheduler, the checkpoint codec, the job lifecycle
# layer, and the fleet load generator must each stay >= 80% covered by
# their own tests.
cover:
	@for pkg in internal/sched internal/snap internal/job internal/fleet; do \
		name=$$(basename $$pkg); \
		$(GO) test -coverprofile=/tmp/$${name}_cover.out ./$$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=/tmp/$${name}_cover.out | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct%"; \
		awk -v p="$$pct" 'BEGIN { exit (p+0 >= 80.0) ? 0 : 1 }' || \
			{ echo "$$pkg coverage $$pct% is below the 80% floor"; exit 1; }; \
	done

# The benchmark harness is its own module, so `go test ./...` at the root
# skips it. Its tests pin golden sample streams for the task-concurrency 1
# BTED+BAO path (sequential policy) and the task-concurrency 2 adaptive
# path through the scheduler, plus the harness's own statistics.
perfbench-test:
	cd perfbench && $(GO) test ./...

# In-repo static-analysis suite (internal/analysis): determinism,
# float-safety, lock hygiene, unchecked errors, library panics, plus the
# dataflow-backed contract analyzers (maprange, walltime, parfold,
# seedflow, errcmp) and stale-directive detection (deadignore). Gated on
# the committed baseline: only findings not recorded there fail the run.
lint:
	$(GO) run ./cmd/lint -baseline cmd/lint/baseline.json ./...

# SARIF 2.1.0 report for CI code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/lint -sarif -baseline cmd/lint/baseline.json ./... > lint.sarif

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Everything CI runs, in one command.
verify: fmt-check build test lint
	$(GO) vet ./...
