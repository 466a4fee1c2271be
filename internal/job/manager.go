package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/record"
)

// State is a job's lifecycle state. The machine is:
//
//	queued → running → done | failed | canceled
//	   ↑         │
//	   └─────────┘ (daemon restart: interrupted jobs re-queue and resume
//	                from their last checkpoint)
//
// Cancellation from the queue goes straight to canceled. A daemon shutdown
// leaves running jobs without a terminal frame on disk; the next start's
// Recover re-queues them, so "interrupted" is never a stored state — it is
// what a queued-with-checkpoint job is.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is the queryable snapshot of one job.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// Seed is the effective run seed (explicit or ID-derived).
	Seed int64 `json:"seed"`
	// Records counts the measurements recorded so far (live) or in total
	// (terminal).
	Records int `json:"records"`
	// Resumed reports that the job was restored from an on-disk checkpoint
	// at daemon startup.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries a failed job's reason.
	Error string `json:"error,omitempty"`
	// Result is the terminal frame of a finished job.
	Result *Result `json:"result,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt are observability timestamps;
	// nothing in the job's record stream depends on them.
	SubmittedAt time.Time  `json:"submitted_at,omitempty"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// managed is the Manager's per-job state. Mutable fields are guarded by
// the Manager mutex; the record tail has its own lock because the runner's
// OnRecordLine fan-out must not contend with queue operations.
type managed struct {
	id      string
	spec    Spec // effective spec: seed resolved, normalized
	state   State
	resumed bool
	err     string
	result  *Result
	resume  *Checkpoint // checkpoint to continue from (recovered jobs)
	lazy    bool        // terminal job from a past daemon life: tail loads from the store on first Subscribe

	cancel     context.CancelFunc // set while running
	userCancel bool               // DELETE vs daemon-shutdown cancellation

	submitted time.Time
	started   time.Time
	finished  time.Time

	tail *tail
}

// tail is a job's in-memory record stream: the replay source for
// subscribers. It stores each record's canonical wire line (record.Line)
// exactly as the runner encoded it for the log — encode once, fan out the
// bytes. Appends come from the runner's serialized OnRecordLine hook; reads
// come from SSE subscriber goroutines at their own pace, each with its own
// cursor, so a slow client never blocks the tuner — it just reads the
// slice later.
type tail struct {
	mu     sync.Mutex
	lines  [][]byte // newline-terminated wire lines; elements are immutable
	closed bool     // no more appends (job reached a terminal state)
	subs   map[int]chan struct{}
	nextID int
}

func newTail() *tail {
	return &tail{subs: make(map[int]chan struct{})}
}

// append adds one wire line and nudges every subscriber. The notification
// channels have capacity 1 and drops are fine: a subscriber drains the
// slice, not the channel. The line must never be mutated afterwards — the
// tail hands it to subscribers as-is.
func (t *tail) append(line []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	for _, ch := range t.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// seed pre-populates the tail (recovered jobs replaying their truncated
// log prefix), re-encoding through the same record.Line the live path
// uses so replayed bytes equal streamed bytes.
func (t *tail) seed(recs []record.Record) error {
	lines := make([][]byte, len(recs))
	for i := range recs {
		line, err := record.Line(recs[i])
		if err != nil {
			return err
		}
		lines[i] = line
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = lines
	return nil
}

// close marks the stream complete and wakes subscribers one last time.
func (t *tail) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, ch := range t.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (t *tail) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.lines)
}

// Sub is one subscriber's cursor over a job's record stream.
type Sub struct {
	t      *tail
	cursor int
	id     int
	notify chan struct{}
}

// Next blocks until lines beyond the cursor exist, then returns them and
// advances. more=false means the stream is complete and fully consumed.
// Every subscriber sees the full stream from its starting offset in
// order — late subscribers replay the whole log first.
//
// The returned slice is a capacity-clipped view of the tail's backing
// array, not a copy: the zero-copy contract is that appends only ever
// write at indices the view cannot reach (len == cap), and the line bytes
// themselves are immutable. Callers must treat both levels as read-only.
func (s *Sub) Next(ctx context.Context) (lines [][]byte, more bool, err error) {
	for {
		s.t.mu.Lock()
		if n := len(s.t.lines); s.cursor < n {
			lines = s.t.lines[s.cursor:n:n]
			s.cursor = n
			s.t.mu.Unlock()
			return lines, true, nil
		}
		closed := s.t.closed
		s.t.mu.Unlock()
		if closed {
			return nil, false, nil
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Snapshot returns the stream's wire lines so far without moving the
// cursor — the non-blocking "what is in the log right now" read. Same
// read-only view contract as Next.
func (s *Sub) Snapshot() [][]byte {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	n := len(s.t.lines)
	return s.t.lines[:n:n]
}

// Close unregisters the subscriber.
func (s *Sub) Close() {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	delete(s.t.subs, s.id)
}

// Manager is the multi-tenant job queue: FIFO admission over the store,
// at most Concurrency jobs running at once, per-job budget policies (each
// Spec carries its own), live record fan-out to subscribers, and crash
// recovery. All scheduling state lives in memory; everything needed to
// rebuild it lives in the Store.
type Manager struct {
	store    *Store
	conc     int
	maxQueue int
	shared   *backend.SharedCache

	mu      sync.Mutex
	jobs    map[string]*managed
	order   []string // insertion order, for List
	queue   []string // FIFO of queued job IDs
	running int
	closed  bool
	wg      sync.WaitGroup
}

// ManagerOptions configures a Manager beyond its store.
type ManagerOptions struct {
	// Concurrency caps how many jobs run at once (minimum 1).
	Concurrency int
	// MaxQueue caps how many jobs may wait in the pending queue; a Submit
	// past the cap fails with ErrQueueFull. 0 means unbounded — matching
	// the pre-admission-control behavior.
	MaxQueue int
	// Shared, when non-nil, is the fleet-wide measurement memo every job
	// this manager runs consults and populates (see backend.SharedCache).
	// Nil runs every job cold, exactly as before.
	Shared *backend.SharedCache
}

// NewManagerWith builds a manager over the store with the given options.
// Call Recover to re-admit jobs a previous daemon left behind, then Submit
// freely.
func NewManagerWith(store *Store, opts ManagerOptions) *Manager {
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.MaxQueue < 0 {
		opts.MaxQueue = 0
	}
	return &Manager{
		store:    store,
		conc:     opts.Concurrency,
		maxQueue: opts.MaxQueue,
		shared:   opts.Shared,
		jobs:     make(map[string]*managed),
	}
}

// SharedCacheStats snapshots the fleet memo's accounting; ok is false when
// the manager runs without one.
func (m *Manager) SharedCacheStats() (backend.SharedCacheStats, bool) {
	if m.shared == nil {
		return backend.SharedCacheStats{}, false
	}
	return m.shared.Stats(), true
}

// ErrClosed reports an operation on a shut-down manager.
var ErrClosed = errors.New("job: manager is shut down")

// ErrQueueFull reports a Submit rejected by admission control: the pending
// queue is at its MaxQueue cap. The caller should retry after jobs drain —
// the HTTP layer maps this to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("job: pending queue is full")

// Submit validates and admits one job: the spec is normalized, the ID
// defaulted to the deterministic SpecID, the effective seed resolved, the
// store directory claimed, and the job queued FIFO. The returned status is
// the job's admission snapshot.
func (m *Manager) Submit(sub Submit) (Status, error) {
	spec := sub.Spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	id := sub.ID
	if id == "" {
		id = SpecID(spec)
	} else if err := ValidateID(id); err != nil {
		return Status{}, err
	}
	spec.Seed = EffectiveSeed(id, spec)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, ErrClosed
	}
	if _, ok := m.jobs[id]; ok {
		return Status{}, fmt.Errorf("%w: %s", ErrExists, id)
	}
	// Admission control: reject before claiming the store directory, so a
	// rejected submit leaves no trace and an immediate retry is clean.
	if m.maxQueue > 0 && len(m.queue) >= m.maxQueue {
		return Status{}, fmt.Errorf("%w: %d pending (cap %d)", ErrQueueFull, len(m.queue), m.maxQueue)
	}
	if err := m.store.Create(id, spec); err != nil {
		return Status{}, err
	}
	j := &managed{
		id: id, spec: spec, state: StateQueued, tail: newTail(),
		submitted: time.Now(), //lint:ignore walltime Status timestamp: observability only, never read by scheduling or tuning
	}
	m.register(j)
	m.maybeStartLocked()
	return m.statusLocked(j), nil
}

// register adds the job to the registry and the FIFO queue (queued jobs
// only). Caller holds the mutex.
func (m *Manager) register(j *managed) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if j.state == StateQueued {
		m.queue = append(m.queue, j.id)
	}
}

// Recover scans the store and re-admits every job a previous daemon life
// left behind: terminal jobs are registered with their stored results,
// interrupted jobs re-queue — resuming from their last checkpoint when one
// exists, restarting from scratch otherwise (same seed, same stream).
// Call it once, before the first Submit, so recovered work keeps its FIFO
// position ahead of new arrivals.
func (m *Manager) Recover() error {
	ids, err := m.store.Jobs()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, id := range ids {
		if _, ok := m.jobs[id]; ok {
			continue
		}
		spec, err := m.store.LoadSpec(id)
		if err != nil {
			return err
		}
		j := &managed{id: id, spec: spec, tail: newTail()}
		cp, res, err := LoadSnap(m.store.SnapPath(id))
		if err != nil {
			return err
		}
		if res != nil {
			j.state = res.State
			j.result = res
			j.err = res.Error
			j.lazy = true
			m.register(j)
			continue
		}
		if cp != nil {
			if err := cp.Validate(spec); err != nil {
				return fmt.Errorf("job: recovering %s: %w", id, err)
			}
			recs, err := m.store.LoadRecords(id)
			if err != nil {
				return err
			}
			if len(recs) < cp.Records {
				return fmt.Errorf("job: recovering %s: log holds %d records, checkpoint counts %d", id, len(recs), cp.Records)
			}
			j.resume = cp
			j.resumed = true
			if err := j.tail.seed(recs[:cp.Records]); err != nil {
				return fmt.Errorf("job: recovering %s: %w", id, err)
			}
		}
		j.state = StateQueued
		m.register(j)
	}
	m.maybeStartLocked()
	return nil
}

// maybeStartLocked starts queued jobs while capacity remains. Caller holds
// the mutex.
func (m *Manager) maybeStartLocked() {
	for !m.closed && m.running < m.conc && len(m.queue) > 0 {
		id := m.queue[0]
		m.queue = m.queue[1:]
		j := m.jobs[id]
		if j == nil || j.state != StateQueued {
			continue
		}
		// Jobs run under their own cancel handle (user DELETE or daemon
		// shutdown), not a stored context: contexts are call-scoped.
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.state = StateRunning
		j.started = time.Now() //lint:ignore walltime Status timestamp: observability only, never read by scheduling or tuning
		m.running++
		m.wg.Add(1)
		go m.run(ctx, j)
	}
}

// run executes one job to a terminal (or interrupted) state and starts the
// next queued one.
func (m *Manager) run(ctx context.Context, j *managed) {
	defer m.wg.Done()
	res, err := Run(ctx, j.spec, RunOptions{
		LogPath:          m.store.LogPath(j.id),
		CheckpointPath:   m.store.SnapPath(j.id),
		ResumeCheckpoint: j.resume,
		Shared:           m.shared,
		OnRecordLine:     func(_ record.Record, line []byte) { j.tail.append(line) },
	})
	m.finish(j, res, err)
}

// finish classifies a run's exit and persists the terminal frame. A
// cancellation that came from Close (daemon shutdown) writes no frame: the
// job's checkpoint stream already holds its resume point, and the next
// daemon life re-queues it.
func (m *Manager) finish(j *managed, res *RunResult, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	j.resume = nil
	j.finished = time.Now() //lint:ignore walltime Status timestamp: observability only, never read by scheduling or tuning
	shutdown := false
	switch {
	case err == nil:
		j.state = StateDone
		j.result = resultOf(res, j.tail.len())
	case errors.Is(err, context.Canceled) && !j.userCancel:
		// Daemon shutdown: leave the on-disk state resumable and the
		// in-memory state queued so a Close-then-Recover in one process
		// (tests) mirrors a restart.
		shutdown = true
		j.state = StateQueued
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.result = &Result{State: StateCanceled, Records: j.tail.len()}
	default:
		j.state = StateFailed
		j.err = err.Error()
		j.result = &Result{State: StateFailed, Error: err.Error(), Records: j.tail.len()}
	}
	if j.result != nil {
		if werr := m.store.AppendResult(j.id, *j.result); werr != nil && j.state == StateDone {
			// A job whose terminal frame cannot land is failed: restarting
			// the daemon would otherwise re-run it silently.
			j.state = StateFailed
			j.err = werr.Error()
		}
	}
	if !shutdown {
		j.tail.close()
	}
	m.running--
	m.maybeStartLocked()
}

// resultOf flattens a completed run into its terminal frame.
func resultOf(res *RunResult, records int) *Result {
	out := &Result{State: StateDone, Records: records}
	if dep := res.Deployment; dep != nil {
		out.LatencyMS = dep.LatencyMS
		out.Variance = dep.Variance
		out.TotalMeasurements = dep.TotalMeasurements
		for _, t := range dep.Tasks {
			tr := TaskResult{Name: t.Task.Name, Measurements: t.Result.Measurements}
			if t.Result.Found {
				tr.GFLOPS = t.Result.Best.GFLOPS
			}
			out.Tasks = append(out.Tasks, tr)
		}
	}
	return out
}

// Cancel cancels a job: queued jobs go terminal immediately, running jobs
// are interrupted at their next batch boundary (checkpoint flushed, state
// canceled). Terminal jobs return false.
func (m *Manager) Cancel(id string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		for i, qid := range m.queue {
			if qid == id {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		j.result = &Result{State: StateCanceled, Records: j.tail.len()}
		j.tail.close()
		if err := m.store.AppendResult(id, *j.result); err != nil {
			return true, err
		}
		return true, nil
	case StateRunning:
		j.userCancel = true
		j.cancel()
		return true, nil
	default:
		return false, nil
	}
}

// Status returns one job's snapshot.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return m.statusLocked(j), nil
}

// List returns every job's snapshot in admission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

func (m *Manager) statusLocked(j *managed) Status {
	st := Status{
		ID: j.id, State: j.state, Spec: j.spec, Seed: j.spec.Seed,
		Records: j.tail.len(), Resumed: j.resumed, Error: j.err,
		Result: j.result, SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if st.Result != nil && st.Records < st.Result.Records {
		st.Records = st.Result.Records
	}
	return st
}

// Subscribe opens a cursor over the job's record stream starting at offset
// from (0 replays everything). Terminal jobs recovered from a previous
// daemon life lazily load their log from the store the first time someone
// subscribes.
func (m *Manager) Subscribe(id string, from int) (*Sub, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.lazy {
		recs, err := m.store.LoadRecords(id)
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		if err := j.tail.seed(recs); err != nil {
			m.mu.Unlock()
			return nil, err
		}
		j.tail.close()
		j.lazy = false
	}
	m.mu.Unlock()

	t := j.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(t.lines) {
		from = len(t.lines)
	}
	sub := &Sub{t: t, cursor: from, id: t.nextID, notify: make(chan struct{}, 1)}
	t.nextID++
	t.subs[sub.id] = sub.notify
	return sub, nil
}

// Close shuts the manager down: no new admissions, running jobs are
// cancelled (they flush their logs and checkpoints and stay resumable),
// and Close blocks until every runner has returned.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil && !j.userCancel {
			j.cancel()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}
