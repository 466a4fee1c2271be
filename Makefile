GO ?= go

.PHONY: all build test determinism portable bench-smoke serve-smoke cover perfbench-test lint lint-sarif fmt-check verify

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-detector pass: every test of every package with concurrent
# machinery or a determinism contract, run under -race so scheduling
# varies. -count=1 bypasses the test cache, so every package runs each
# time instead of reporting (cached) from an earlier pass. It covers the
# concurrent measurement types (hwsim.Simulator, transfer.History, the
# tuner worker pool, par, the shared measurement cache), parallel bootstrap training and Gram assembly, and the job
# manager's record fan-out and the daemon's SSE subscribers;
# and the determinism suite: same seed, Workers 1/4/8 must yield
# bit-identical samples for every tuner, a cancelled or deadline-expired
# run must return a bit-identical prefix of them, the graph scheduler's
# outcomes must be invariant across the Workers {1,4,8} x task-concurrency
# {1,2,4} grid (sched, plus the pipeline-level golden and invariance checks
# in internal/core), a manager's shared cache must leave every record log
# byte-identical to an uncached run, the kernel-level TED/mat-vec/Cholesky,
# xgb training (binning, split search, prediction updates) and GP kernel
# builds must be bit-identical for any worker count, BAO's sampled
# neighborhood, whose trials are walked in parallel chunks, must take
# exactly the RNG draws of a serial full walk of every trial and return
# the same configs at worker counts 1, 2 and 4 (space), and
# snapshot -> restore -> continue must be bit-identical for every tuner,
# for the scheduler, and for the crash-resume rehearsals of the whole job
# lifecycle: cmd/tune killed at a checkpoint boundary (sequential,
# concurrent and adaptive schedules), the runner and the manager
# (internal/job), and a served job whose daemon is killed and restarted
# (cmd/served); and the paper studies' paired grid, whose cells run
# concurrently and must fold to the same numbers at any width, with a
# Table I study resumed from its job store (internal/repro). The timeout
# is explicit because the tuner package's snapshot suite runs for 5-10
# minutes under -race on a 2-CPU host, close to go test's 10-minute
# default.
determinism:
	$(GO) test -race -count=1 -timeout 30m \
		./internal/hwsim ./internal/transfer ./internal/tuner ./internal/active ./internal/linalg ./internal/par ./internal/backend ./internal/sched ./internal/core ./internal/xgb ./internal/gp ./internal/snap ./internal/rng ./internal/space ./internal/job ./internal/serve ./internal/repro ./cmd/tune ./cmd/served

# The paths the default build skips on an AVX2+FMA machine: the pure-Go
# fallbacks of the kernel packages (-tags purego), and the vector RBF Gram
# kernel's self-check with FMA masked off, where math.Exp takes its
# non-FMA code and the kernel must stand down so every Gram entry keeps
# math.Exp's bits. Under cpu.fma=off internal/active runs its TED, BTED
# and Embed tests only: TestGoldenTrainerPredictions pins predictions
# computed through math.Exp's FMA code (the simulator's noise factor), so
# it cannot pass with FMA masked on any commit.
portable:
	$(GO) test -count=1 -tags purego ./internal/linalg ./internal/active ./internal/rng ./internal/hwsim
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/linalg
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'TED|Embed' ./internal/active

# Benchmark smoke pass: every committed benchmark must still compile and
# run (one iteration; not a timing source).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run XXXBENCHXXX ./...

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

# Coverage gates: the scheduler, the checkpoint codec, the job lifecycle
# layer, and the tuner session layer must each stay >= 80% covered by their
# own tests. Profiles go to a private temporary directory, removed on exit.
cover:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for pkg in internal/sched internal/snap internal/job internal/tuner; do \
		name=$$(basename $$pkg); \
		$(GO) test -coverprofile=$$tmp/$${name}_cover.out ./$$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=$$tmp/$${name}_cover.out | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
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
# seedflow, errcmp) and stale-directive detection (deadignore). Any finding
# fails the run.
lint:
	$(GO) run ./cmd/lint ./...

# SARIF 2.1.0 report for CI code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/lint -sarif ./... > lint.sarif

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Everything CI runs, in one command.
verify: fmt-check build test lint
	$(GO) vet ./...
