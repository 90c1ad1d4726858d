package fabric

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"priceadaptive/internal/fault"
	"priceadaptive/internal/jobs"
	"priceadaptive/internal/obsv"
)

// WorkerOptions configures a worker node.
type WorkerOptions struct {
	// Name is the node's stable identity across restarts; required.
	Name string
	// Dispatcher is the dispatcher's base URL; required.
	Dispatcher string
	// DataDir is the node's local artifact store; required. It survives
	// restarts — the rebuilt in-progress set comes from here.
	DataDir string
	// Capacity is the local worker-pool size and the booking capacity
	// advertised to the dispatcher (default 2).
	Capacity int
	// HTTP carries the node protocol; nil means http.DefaultClient. The
	// chaos harness substitutes an in-process transport.
	HTTP *http.Client
	// Clock drives the poll/heartbeat loop; nil means the wall clock.
	Clock fault.Clock
	// Poll is the control-loop tick (default 25ms).
	Poll time.Duration
	// Heartbeat overrides the dispatcher-advertised cadence when > 0.
	Heartbeat time.Duration
	// Injector and Seed feed the local queue's fault sites (chaos).
	Injector fault.Injector
	Seed     int64
	// Retry is the local queue's retry policy.
	Retry jobs.RetryPolicy
	// Metrics backs the local queue's pad_* instruments; nil means private.
	Metrics *obsv.Registry
}

// Worker is a pull-based fleet node: a local jobs.Queue wrapped in the
// /fabric/v1 protocol. It registers with its rebuilt local state, pulls
// assignments, executes them on the local pool, and acks terminal outcomes
// (with the artifact) through the queue's terminal hook.
type Worker struct {
	opts  WorkerOptions
	clock fault.Clock
	store *jobs.Store
	queue *jobs.Queue
	fc    *Client

	ctx    context.Context // padvet:allow ctx-field node lifetime root, cancelled in Close
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	// claimed is the assignment set this node holds leases for; acks is the
	// FIFO of locally-terminal jobs not yet reported (ackSet dedups it).
	claimed map[string]bool // guarded by mu
	acks    []string        // guarded by mu
	ackSet  map[string]bool // guarded by mu
	// registered gates the loop; hbEvery/lastHB drive the heartbeat cadence.
	registered bool          // guarded by mu
	hbEvery    time.Duration // guarded by mu
	lastHB     time.Time     // guarded by mu
	killed     bool          // guarded by mu
}

// NewWorker opens the node's local store and builds its queue (builtin
// kinds registered, crash recovery run). Call Start to join the fleet.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" || opts.Dispatcher == "" || opts.DataDir == "" {
		return nil, fmt.Errorf("fabric: worker needs Name, Dispatcher and DataDir")
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 2
	}
	if opts.Clock == nil {
		opts.Clock = fault.Wall{}
	}
	if opts.Poll <= 0 {
		opts.Poll = 25 * time.Millisecond
	}
	store, err := jobs.Open(opts.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background()) // nosleep:allow worker-lifetime root, cancelled in Close/Kill
	w := &Worker{
		opts:    opts,
		clock:   opts.Clock,
		store:   store,
		ctx:     ctx,
		cancel:  cancel,
		claimed: make(map[string]bool),
		ackSet:  make(map[string]bool),
	}
	qopts := []jobs.Option{
		jobs.WithWorkers(opts.Capacity),
		jobs.WithClock(opts.Clock),
		jobs.WithSeed(opts.Seed),
		jobs.WithRetryPolicy(opts.Retry),
		jobs.WithTerminalHook(w.onTerminal),
	}
	if opts.Injector != nil {
		qopts = append(qopts, jobs.WithInjector(opts.Injector))
	}
	if opts.Metrics != nil {
		qopts = append(qopts, jobs.WithMetrics(opts.Metrics))
	}
	w.queue = jobs.NewQueue(store, qopts...)
	jobs.RegisterBuiltins(w.queue)
	if _, err := w.queue.Recover(); err != nil {
		cancel()
		return nil, err
	}
	w.fc = NewClient(opts.Dispatcher)
	w.fc.HTTP = opts.HTTP
	w.fc.Clock = opts.Clock
	return w, nil
}

// Queue exposes the node's local queue (status inspection, metrics).
func (w *Worker) Queue() *jobs.Queue { return w.queue }

// VerifyArtifacts re-hashes the node's local artifact store.
func (w *Worker) VerifyArtifacts() (jobs.IntegrityReport, error) {
	return w.store.VerifyArtifacts()
}

// Start runs the local pool and the fleet control loop.
func (w *Worker) Start() {
	w.queue.Start()
	w.wg.Add(1)
	go w.loop()
}

// Close leaves the fleet gracefully: the control loop stops, then the local
// queue shuts down (in-flight work parks back as queued in the local store,
// to be reconciled at the next registration).
func (w *Worker) Close() {
	w.cancel()
	w.wg.Wait()
	w.queue.Close()
}

// Kill models a process crash: the control loop stops and the local queue
// aborts hard — no drain, no further acks. The local store keeps whatever
// the crash left; a restarted worker rebuilds from it.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.killed = true
	w.mu.Unlock()
	w.cancel()
	w.wg.Wait()
	w.queue.Abort()
}

// onTerminal is the queue's terminal hook: every local completion becomes a
// pending ack to the dispatcher.
func (w *Worker) onTerminal(st jobs.Status) {
	w.enqueueAck(st.ID)
}

func (w *Worker) enqueueAck(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed || w.ackSet[id] {
		return
	}
	w.ackSet[id] = true
	w.acks = append(w.acks, id)
}

func (w *Worker) loop() {
	defer w.wg.Done()
	for {
		if err := w.clock.Sleep(w.ctx, w.opts.Poll); err != nil {
			return
		}
		w.tick()
	}
}

// tick is one pass of the control loop: (re)register, flush pending acks,
// heartbeat when due, pull fresh work.
func (w *Worker) tick() {
	w.mu.Lock()
	registered := w.registered
	w.mu.Unlock()
	if !registered {
		if err := w.register(); err != nil {
			return // dispatcher unreachable; try again next tick
		}
	}
	w.flushAcks()
	w.heartbeatIfDue()
	w.pull()
}

// register announces the node with its rebuilt local state (the simq
// RebuildSimulatorList pattern): InProgress from the local store's
// queued/running entries, Finished from its terminal ones — so a restart
// reconciles with the dispatcher instead of re-running work.
func (w *Worker) register() error {
	entries, orphans, err := w.store.Scan()
	if err != nil {
		return err
	}
	w.store.Reconcile(orphans)
	req := RegisterRequest{Node: w.opts.Name, Capacity: w.opts.Capacity}
	for _, e := range entries {
		if e.Status.State.Terminal() {
			req.Finished = append(req.Finished, e.ID)
		} else {
			req.InProgress = append(req.InProgress, e.ID)
		}
	}
	sort.Strings(req.InProgress)
	sort.Strings(req.Finished)
	resp, err := w.fc.Register(w.ctx, req)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.registered = true
	w.hbEvery = w.opts.Heartbeat
	if w.hbEvery <= 0 {
		w.hbEvery = time.Duration(resp.HeartbeatSec * float64(time.Second))
	}
	if w.hbEvery <= 0 {
		w.hbEvery = 3 * time.Second
	}
	w.lastHB = w.clock.Now()
	for _, id := range resp.Keep {
		w.claimed[id] = true
	}
	w.mu.Unlock()
	for _, id := range resp.Drop {
		w.drop(id)
	}
	for _, id := range resp.Want {
		// The dispatcher never received this artifact: ack it from the
		// local store, no re-run.
		w.mu.Lock()
		w.claimed[id] = true
		w.mu.Unlock()
		w.enqueueAck(id)
	}
	return nil
}

// drop abandons a job the dispatcher no longer credits to this node:
// cancel it locally and forget any pending ack.
func (w *Worker) drop(id string) {
	w.mu.Lock()
	delete(w.claimed, id)
	if w.ackSet[id] {
		delete(w.ackSet, id)
		for i, aid := range w.acks {
			if aid == id {
				w.acks = append(w.acks[:i], w.acks[i+1:]...)
				break
			}
		}
	}
	w.mu.Unlock()
	if st, err := w.queue.Get(id); err == nil && !st.State.Terminal() {
		_ = w.queue.Cancel(id)
	}
}

// flushAcks reports every locally-terminal job to the dispatcher, artifact
// attached. The local queue is the source of truth, as it is for the
// heartbeat's lease renewals: its terminal status write to the store is
// best effort, so an ack first brings a lagging store up to the queue's
// status (a restart would otherwise re-run, or re-report, a job the
// dispatcher was told is finished). Transport and store failures keep the
// ack queued for the next tick; an unknown-node answer forces a
// re-registration; an integrity reject drops the claim (the dispatcher
// already re-queued the job elsewhere).
func (w *Worker) flushAcks() {
	for {
		w.mu.Lock()
		if len(w.acks) == 0 || !w.registered {
			w.mu.Unlock()
			return
		}
		id := w.acks[0]
		w.mu.Unlock()

		st, err := w.queue.Get(id)
		if err != nil {
			// Unknown to the local queue: nothing to report; the lease will
			// recycle the job if it still matters.
			w.dropAck(id)
			continue
		}
		if !st.State.Terminal() {
			w.dropAck(id) // re-queued locally (retry policy); not terminal after all
			continue
		}
		if disk, derr := w.store.GetStatus(id); derr != nil || disk.State != st.State {
			if w.store.PutStatus(id, st) != nil {
				return // store trouble: retry the whole backlog next tick
			}
		}
		req := CompleteRequest{
			Node:       w.opts.Name,
			ID:         id,
			State:      st.State,
			Error:      st.Error,
			Attempts:   st.Attempts,
			DurationNS: st.Duration.Nanoseconds(),
		}
		if st.State == jobs.StateDone {
			raw, rerr := w.queue.Result(id)
			if rerr != nil {
				// Artifact lost under us: report the failure honestly so
				// the dispatcher re-queues instead of waiting out the lease.
				req.State = jobs.StateFailed
				req.Error = fmt.Sprintf("artifact unreadable on node %s: %v", w.opts.Name, rerr)
			} else {
				req.Result = raw
				req.ResultSum = st.ResultSum
			}
		}
		_, err = w.fc.Complete(w.ctx, req)
		switch {
		case err == nil, IsIntegrityReject(err):
			w.dropAck(id)
			w.mu.Lock()
			delete(w.claimed, id)
			w.mu.Unlock()
		case IsUnknownNode(err):
			w.mu.Lock()
			w.registered = false
			w.mu.Unlock()
			return
		default:
			return // transport/store trouble: retry the whole backlog next tick
		}
	}
}

func (w *Worker) dropAck(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.ackSet[id] {
		return
	}
	delete(w.ackSet, id)
	for i, aid := range w.acks {
		if aid == id {
			w.acks = append(w.acks[:i], w.acks[i+1:]...)
			return
		}
	}
}

// heartbeatIfDue renews liveness and assignment leases on the advertised
// cadence, and applies returned control traffic.
func (w *Worker) heartbeatIfDue() {
	w.mu.Lock()
	if !w.registered || w.clock.Now().Sub(w.lastHB) < w.hbEvery {
		w.mu.Unlock()
		return
	}
	w.lastHB = w.clock.Now()
	req := HeartbeatRequest{Node: w.opts.Name}
	for id := range w.claimed {
		if st, err := w.queue.Get(id); err == nil && !st.State.Terminal() {
			req.InProgress = append(req.InProgress, id)
		}
	}
	sort.Strings(req.InProgress)
	req.Free = w.freeLocked()
	w.mu.Unlock()

	resp, err := w.fc.Heartbeat(w.ctx, req)
	if err != nil {
		if IsUnknownNode(err) {
			w.mu.Lock()
			w.registered = false
			w.mu.Unlock()
		}
		return
	}
	for _, id := range resp.Cancel {
		// Client-requested cancellation: cancel locally; the terminal hook
		// acks the cancelled state back.
		if st, gerr := w.queue.Get(id); gerr == nil && !st.State.Terminal() {
			_ = w.queue.Cancel(id)
		}
	}
	for _, id := range resp.Drop {
		w.drop(id)
	}
}

// freeLocked is the node's spare booking capacity. Caller holds mu.
func (w *Worker) freeLocked() int {
	free := w.opts.Capacity - len(w.claimed)
	if free < 0 {
		return 0
	}
	return free
}

// pull fetches fresh assignments up to the node's spare capacity and feeds
// them to the local queue. A cache hit (the local store already holds the
// artifact from a previous life) acks immediately without re-running.
func (w *Worker) pull() {
	w.mu.Lock()
	free := 0
	if w.registered {
		free = w.freeLocked()
	}
	w.mu.Unlock()
	if free <= 0 {
		return
	}
	resp, err := w.fc.Pull(w.ctx, PullRequest{Node: w.opts.Name, Max: free})
	if err != nil {
		if IsUnknownNode(err) {
			w.mu.Lock()
			w.registered = false
			w.mu.Unlock()
		}
		return
	}
	for _, a := range resp.Assignments {
		w.mu.Lock()
		w.claimed[a.ID] = true
		w.mu.Unlock()
		_, outcome, err := w.queue.Submit(a.Spec)
		switch {
		case err != nil:
			// Local intake refused (unknown kind, store trouble): report a
			// failed attempt so the dispatcher retries elsewhere.
			st, _ := w.store.GetStatus(a.ID)
			_, _ = w.fc.Complete(w.ctx, CompleteRequest{
				Node: w.opts.Name, ID: a.ID, State: jobs.StateFailed,
				Error: fmt.Sprintf("node %s refused intake: %v", w.opts.Name, err), Attempts: st.Attempts,
			})
			w.mu.Lock()
			delete(w.claimed, a.ID)
			w.mu.Unlock()
		case outcome == jobs.SubmitCached:
			w.enqueueAck(a.ID)
		}
	}
}
