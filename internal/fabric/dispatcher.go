package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"priceadaptive/internal/fault"
	"priceadaptive/internal/jobs"
	"priceadaptive/internal/obsv"
)

// DispatcherOptions configures a Dispatcher. The zero value gets sane
// production defaults; chaos and unit tests shrink every interval.
type DispatcherOptions struct {
	// LeaseTTL is how long an assignment may go unheartbeated before it is
	// re-queued for reassignment (default 15s).
	LeaseTTL time.Duration
	// NodeTTL is how long a node may go silent before it is declared dead
	// and its whole in-flight set re-queued (default 10s).
	NodeTTL time.Duration
	// Heartbeat is the cadence advertised to workers (default 3s).
	Heartbeat time.Duration
	// Sweep is the lease-expiry scan interval (default 1s).
	Sweep time.Duration
	// MaxQueued bounds unplaced jobs; beyond it Submit sheds with
	// jobs.ErrSaturated. 0 means unbounded.
	MaxQueued int
	// MaxAttempts is the fleet-wide assignment budget per job life: a job
	// whose failure (or shed) count reaches it lands terminal failed
	// instead of re-queueing (default 3).
	MaxAttempts int
	// Kinds is the admitted job-kind set (default jobs.BuiltinKinds()).
	// The dispatcher holds no runners; workers must register these kinds.
	Kinds []string
	// Clock drives leases, heartbeats and the sweeper; nil means the wall
	// clock. Tests substitute fault.Manual to step lease expiry by hand.
	Clock fault.Clock
	// Metrics is the registry the pad_fleet_* instruments land on; nil
	// means a private registry.
	Metrics *obsv.Registry
}

func (o DispatcherOptions) withDefaults() DispatcherOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.NodeTTL <= 0 {
		o.NodeTTL = 10 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 3 * time.Second
	}
	if o.Sweep <= 0 {
		o.Sweep = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Kinds == nil {
		o.Kinds = jobs.BuiltinKinds()
	}
	if o.Clock == nil {
		o.Clock = fault.Wall{}
	}
	return o
}

// fjob is the dispatcher's in-memory view of one fleet job.
type fjob struct {
	spec   jobs.Spec
	status jobs.Status
	// result caches the replicated artifact once done.
	result json.RawMessage
	// node is the current assignment ("" while unplaced); delivered marks
	// that the node pulled it; lease is the assignment's expiry on the
	// dispatcher clock.
	node      string    // guarded by Dispatcher.mu
	delivered bool      // guarded by Dispatcher.mu
	lease     time.Time // guarded by Dispatcher.mu
	// acceptedAt (dispatcher clock) feeds the placement-latency histogram.
	acceptedAt      time.Time // guarded by Dispatcher.mu
	cancelRequested bool      // guarded by Dispatcher.mu
	// done closes at the terminal transition (replaced on resubmission).
	done chan struct{}
}

// dnode is one registry entry: a live worker node and its bookings.
type dnode struct {
	name     string
	capacity int
	// inflight is the booked assignment set; outbox the subset placed but
	// not yet pulled.
	inflight map[string]bool // guarded by Dispatcher.mu
	outbox   []string        // guarded by Dispatcher.mu
	lastSeen time.Time       // guarded by Dispatcher.mu
	// completions counts accepted Complete reports, for the fleet report.
	completions int64 // guarded by Dispatcher.mu
}

// padvet:holds Dispatcher.mu
func (n *dnode) free() int { return n.capacity - len(n.inflight) }

// load is the booking ratio placement minimizes.
// padvet:holds Dispatcher.mu
func (n *dnode) load() float64 { return float64(len(n.inflight)) / float64(n.capacity) }

// Dispatcher shards jobs across registered worker nodes. It implements
// jobs.Service, so jobs.NewHandlerFor serves it over the exact v1 API a
// single-node padserver speaks; the /fabric/v1 node protocol rides on the
// same mux (see Handler).
type Dispatcher struct {
	store *jobs.Store
	opts  DispatcherOptions
	clock fault.Clock
	m     *fleetMetrics

	sweepCtx    context.Context // padvet:allow ctx-field sweeper lifetime root, cancelled in Close
	sweepCancel context.CancelFunc
	wg          sync.WaitGroup

	mu      sync.Mutex
	kinds   map[string]bool   // guarded by mu
	jobs    map[string]*fjob  // guarded by mu
	queue   []string          // guarded by mu (accepted, unplaced, FIFO)
	nodes   map[string]*dnode // guarded by mu
	started bool              // guarded by mu
	closed  bool              // guarded by mu
	// terminal tallies for the MetricsSnapshot view.
	doneN, failedN, cancelledN int64 // guarded by mu
}

// NewDispatcher creates a dispatcher over store. Call Recover, then Start.
func NewDispatcher(store *jobs.Store, opts DispatcherOptions) *Dispatcher {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background()) // nosleep:allow sweeper-lifetime root, cancelled in Close
	d := &Dispatcher{
		store:       store,
		opts:        opts,
		clock:       opts.Clock,
		m:           newFleetMetrics(opts.Metrics),
		sweepCtx:    ctx,
		sweepCancel: cancel,
		kinds:       make(map[string]bool, len(opts.Kinds)),
		jobs:        make(map[string]*fjob),
		nodes:       make(map[string]*dnode),
	}
	for _, k := range opts.Kinds {
		d.kinds[k] = true // padvet:allow lockguard construction: d is not shared yet
	}
	d.m.registerGauges(d)
	return d
}

// Observability returns the registry backing the pad_fleet_* instruments.
func (d *Dispatcher) Observability() *obsv.Registry { return d.m.reg }

// PlacementLatencies returns the raw accept-to-place latencies (seconds)
// observed so far; the load-generator bench summarizes them.
func (d *Dispatcher) PlacementLatencies() []float64 { return d.m.placementLatencies() }

// Recover rescans the dispatcher store after a restart: done jobs with an
// intact replicated artifact stay done, done jobs whose artifact is missing
// or fails its checksum are re-queued, and jobs that were queued or assigned
// when the previous dispatcher died are re-queued — to be reconciled (not
// re-run) when their worker re-registers with its rebuilt in-progress set.
func (d *Dispatcher) Recover() (requeued int, err error) {
	entries, orphans, err := d.store.Scan()
	if err != nil {
		return 0, fmt.Errorf("fabric: recover: %w", err)
	}
	d.store.Reconcile(orphans)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if _, ok := d.jobs[e.ID]; ok {
			continue
		}
		j := &fjob{spec: e.Spec, status: e.Status, acceptedAt: d.clock.Now(), done: make(chan struct{})}
		resultBad := false
		if e.Status.State == jobs.StateDone {
			raw, rerr := d.store.GetResult(e.ID)
			switch {
			case rerr != nil:
				resultBad = true
			case e.Status.ResultSum != "" && jobs.Sum(raw) != e.Status.ResultSum:
				resultBad = true
			}
		}
		switch {
		case e.Status.State == jobs.StateQueued, e.Status.State == jobs.StateRunning, resultBad:
			j.status.State = jobs.StateQueued
			j.node = ""
			if err := d.store.PutStatus(e.ID, j.status); err != nil {
				continue // left on disk; the next Recover retries it
			}
			d.queue = append(d.queue, e.ID)
			requeued++
		default:
			close(j.done)
		}
		d.jobs[e.ID] = j
	}
	return requeued, nil
}

// Start spawns the lease sweeper.
func (d *Dispatcher) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started || d.closed {
		return
	}
	d.started = true
	d.wg.Add(1)
	go d.sweeper()
}

// Close stops the dispatcher. In-memory fleet state (assignments, node
// registry) is deliberately volatile: a restarted dispatcher recovers its
// job set from the store and relearns the fleet as workers re-register, so
// Close doubles as the chaos harness's dispatcher-crash model.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.sweepCancel()
	d.wg.Wait()
}

func (d *Dispatcher) sweeper() {
	defer d.wg.Done()
	for {
		if err := d.clock.Sleep(d.sweepCtx, d.opts.Sweep); err != nil {
			return
		}
		d.Sweep()
	}
}

// Sweep expires dead nodes and stale leases, re-queueing their jobs, then
// re-places the queue. The background sweeper calls it on every tick;
// manual-clock tests call it directly after advancing time.
func (d *Dispatcher) Sweep() {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, n := range d.nodes {
		if now.Sub(n.lastSeen) <= d.opts.NodeTTL {
			continue
		}
		// Node death: every booking comes back for reassignment.
		d.m.nodeDeaths.Inc()
		for id := range n.inflight {
			d.releaseLocked(n, id)
			d.requeueLocked(id, fmt.Sprintf("node %s died (no heartbeat for %v)", name, now.Sub(n.lastSeen)))
		}
		delete(d.nodes, name)
	}
	for id, j := range d.jobs {
		if j.node == "" || j.status.State != jobs.StateRunning || !j.lease.Before(now) {
			continue
		}
		d.m.leaseExpiries.Inc()
		node := j.node // releaseLocked clears it
		if n := d.nodes[node]; n != nil {
			d.releaseLocked(n, id)
		}
		d.requeueLocked(id, fmt.Sprintf("lease expired on node %s", node))
	}
	d.placeLocked()
}

// releaseLocked removes a job's booking from a node. Caller holds mu.
func (d *Dispatcher) releaseLocked(n *dnode, id string) {
	delete(n.inflight, id)
	for i, oid := range n.outbox {
		if oid == id {
			n.outbox = append(n.outbox[:i], n.outbox[i+1:]...)
			break
		}
	}
	if j := d.jobs[id]; j != nil && j.node == n.name {
		j.node = ""
		j.delivered = false
	}
}

// requeueLocked puts a non-terminal job back on the unplaced queue after a
// lease loss or failed attempt. Caller holds mu.
func (d *Dispatcher) requeueLocked(id, why string) {
	j := d.jobs[id]
	if j == nil || j.status.State.Terminal() {
		return
	}
	j.status.State = jobs.StateQueued
	j.status.Error = why
	j.node = ""
	j.delivered = false
	_ = d.store.PutStatus(id, j.status) // best effort; Recover heals
	d.queue = append(d.queue, id)
	d.m.reassignments.Inc()
}

// placeLocked drains the unplaced queue onto the least-loaded live nodes
// with free capacity, booking each assignment. Caller holds mu.
func (d *Dispatcher) placeLocked() {
	for len(d.queue) > 0 {
		n := d.pickNodeLocked()
		if n == nil {
			return
		}
		id := d.queue[0]
		d.queue = d.queue[1:]
		j := d.jobs[id]
		if j == nil || j.status.State != jobs.StateQueued || j.node != "" {
			continue // resolved or adopted while waiting
		}
		d.assignLocked(j, n, false)
	}
}

// pickNodeLocked returns the least-loaded node with free capacity (lowest
// booking ratio, ties by fewest in-flight then name), or nil.
func (d *Dispatcher) pickNodeLocked() *dnode {
	var best *dnode
	for _, n := range d.nodes {
		if n.free() <= 0 {
			continue
		}
		if best == nil || n.load() < best.load() ||
			(n.load() == best.load() && (len(n.inflight) < len(best.inflight) ||
				(len(n.inflight) == len(best.inflight) && n.name < best.name))) {
			best = n
		}
	}
	return best
}

// assignLocked books job j on node n. adopted marks a reconcile adoption
// (the worker already holds the work), which skips the outbox. Caller
// holds mu.
func (d *Dispatcher) assignLocked(j *fjob, n *dnode, adopted bool) {
	id := j.status.ID
	j.node = n.name
	j.delivered = adopted
	j.lease = d.clock.Now().Add(d.opts.LeaseTTL)
	j.status.State = jobs.StateRunning
	if j.status.StartedAt.IsZero() {
		j.status.StartedAt = d.clock.Now().UTC()
	}
	j.status.Attempts++
	_ = d.store.PutStatus(id, j.status) // best effort; Recover heals
	n.inflight[id] = true
	if !adopted {
		n.outbox = append(n.outbox, id)
		d.m.assignments.Inc()
		d.m.observePlacement(d.clock.Now().Sub(j.acceptedAt).Seconds())
	} else {
		d.m.adopted.Inc()
	}
}

// removeFromQueueLocked drops id from the unplaced queue if present.
// Caller holds mu.
func (d *Dispatcher) removeFromQueueLocked(id string) {
	for i, qid := range d.queue {
		if qid == id {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return
		}
	}
}

func (d *Dispatcher) inflightLocked() int {
	total := 0
	for _, n := range d.nodes {
		total += len(n.inflight)
	}
	return total
}

// ---- jobs.Service ----

// Submit accepts a spec into the fleet with the same dedup semantics as a
// single-node queue: cached when done, joined when in flight, re-queued
// when failed or cancelled, queued when fresh. Placement happens
// immediately when a node has free capacity.
func (d *Dispatcher) Submit(spec jobs.Spec) (jobs.Status, jobs.SubmitOutcome, error) {
	id, err := spec.ID()
	if err != nil {
		return jobs.Status{}, jobs.SubmitQueued, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return jobs.Status{}, jobs.SubmitQueued, jobs.ErrClosed
	}
	if !d.kinds[spec.Kind] {
		return jobs.Status{}, jobs.SubmitQueued, fmt.Errorf("%w %q", jobs.ErrUnknownKind, spec.Kind)
	}
	d.m.submitted.Inc()
	if j, ok := d.jobs[id]; ok {
		switch j.status.State {
		case jobs.StateDone:
			d.m.cacheHits.Inc()
			return j.status, jobs.SubmitCached, nil
		case jobs.StateFailed, jobs.StateCancelled:
			if err := d.admitLocked(); err != nil {
				return jobs.Status{}, jobs.SubmitQueued, err
			}
			j.cancelRequested = false
			j.status.State = jobs.StateQueued
			j.status.Error = ""
			j.status.Attempts = 0 // resubmission grants a fresh attempt budget
			j.acceptedAt = d.clock.Now()
			j.done = make(chan struct{})
			if err := d.store.PutStatus(id, j.status); err != nil {
				return jobs.Status{}, jobs.SubmitQueued, fmt.Errorf("%w: %v", jobs.ErrStoreUnavailable, err)
			}
			d.queue = append(d.queue, id)
			d.placeLocked()
			return j.status, jobs.SubmitRequeued, nil
		default:
			d.m.deduped.Inc()
			return j.status, jobs.SubmitJoined, nil
		}
	}
	if err := d.admitLocked(); err != nil {
		return jobs.Status{}, jobs.SubmitQueued, err
	}
	j := &fjob{
		spec: spec,
		status: jobs.Status{
			ID:        id,
			Kind:      spec.Kind,
			State:     jobs.StateQueued,
			CreatedAt: d.clock.Now().UTC(),
		},
		acceptedAt: d.clock.Now(),
		done:       make(chan struct{}),
	}
	if err := d.store.PutSpec(id, spec); err != nil {
		return jobs.Status{}, jobs.SubmitQueued, fmt.Errorf("%w: %v", jobs.ErrStoreUnavailable, err)
	}
	if err := d.store.PutStatus(id, j.status); err != nil {
		return jobs.Status{}, jobs.SubmitQueued, fmt.Errorf("%w: %v", jobs.ErrStoreUnavailable, err)
	}
	d.jobs[id] = j
	d.queue = append(d.queue, id)
	d.placeLocked()
	return j.status, jobs.SubmitQueued, nil
}

// admitLocked enforces MaxQueued over the unplaced queue. Caller holds mu.
func (d *Dispatcher) admitLocked() error {
	if d.opts.MaxQueued > 0 && len(d.queue) >= d.opts.MaxQueued {
		return jobs.ErrSaturated
	}
	return nil
}

// Get returns a job's current fleet status.
func (d *Dispatcher) Get(id string) (jobs.Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return jobs.Status{}, jobs.ErrNotFound
	}
	return j.status, nil
}

// Result returns the replicated artifact of a done job.
func (d *Dispatcher) Result(id string) (json.RawMessage, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, jobs.ErrNotFound
	}
	if j.status.State != jobs.StateDone {
		return nil, fmt.Errorf("fabric: %s is %s, no result", id, j.status.State)
	}
	if j.result == nil {
		raw, err := d.store.GetResult(id)
		if err != nil {
			return nil, err
		}
		j.result = raw
	}
	return j.result, nil
}

// List returns every known job, optionally filtered, ordered by creation
// time then id.
func (d *Dispatcher) List(kind string, state jobs.State) []jobs.Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]jobs.Status, 0, len(d.jobs))
	for _, j := range d.jobs {
		if kind != "" && j.status.Kind != kind {
			continue
		}
		if state != "" && j.status.State != state {
			continue
		}
		out = append(out, j.status)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.Before(out[k].CreatedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel cancels a fleet job: unplaced (or undelivered) jobs transition
// immediately; delivered jobs are cancelled on their node via the next
// heartbeat's Cancel list, and land terminal when the node reports back.
func (d *Dispatcher) Cancel(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return jobs.ErrNotFound
	}
	switch {
	case j.status.State.Terminal():
		return fmt.Errorf("fabric: %s already %s", id, j.status.State)
	case j.status.State == jobs.StateQueued:
		d.removeFromQueueLocked(id)
		d.terminalLocked(j, jobs.StateCancelled, "cancelled before placement")
		return nil
	case !j.delivered:
		// Placed but never pulled: the node has not seen it, revoke directly.
		if n := d.nodes[j.node]; n != nil {
			d.releaseLocked(n, id)
		}
		d.terminalLocked(j, jobs.StateCancelled, "cancelled before delivery")
		return nil
	default:
		j.cancelRequested = true
		return nil
	}
}

// terminalLocked records a terminal transition reached dispatcher-side
// (cancellations, exhausted attempt budgets). Caller holds mu.
func (d *Dispatcher) terminalLocked(j *fjob, state jobs.State, msg string) {
	j.status.State = state
	j.status.Error = msg
	j.status.FinishedAt = d.clock.Now().UTC()
	_ = d.store.PutStatus(j.status.ID, j.status)
	close(j.done)
	switch state {
	case jobs.StateFailed:
		d.failedN++
	case jobs.StateCancelled:
		d.cancelledN++
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (d *Dispatcher) Wait(ctx context.Context, id string) (jobs.Status, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return jobs.Status{}, jobs.ErrNotFound
	}
	done := j.done
	d.mu.Unlock()
	select {
	case <-done:
		return d.Get(id)
	case <-ctx.Done():
		return jobs.Status{}, ctx.Err()
	}
}

// Health reports whether the fleet would accept and eventually run a fresh
// submission. No live nodes is a degradation (queued work cannot start),
// though intake continues.
func (d *Dispatcher) Health() jobs.Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	var reasons []string
	if d.closed {
		reasons = append(reasons, "closed")
	}
	if d.opts.MaxQueued > 0 && len(d.queue) >= d.opts.MaxQueued {
		reasons = append(reasons, "saturated")
	}
	if len(d.nodes) == 0 {
		reasons = append(reasons, "no_nodes")
	}
	return jobs.Health{OK: len(reasons) == 0, Degraded: reasons}
}

// Metrics derives the legacy JSON snapshot from the fleet instruments:
// Workers is fleet capacity, Running fleet-wide booked work.
func (d *Dispatcher) Metrics() jobs.MetricsSnapshot {
	d.mu.Lock()
	capacity := 0
	for _, n := range d.nodes {
		capacity += n.capacity
	}
	depth, running := len(d.queue), d.inflightLocked()
	doneN, failedN, cancelledN := d.doneN, d.failedN, d.cancelledN
	d.mu.Unlock()
	snap := jobs.MetricsSnapshot{
		Workers:    capacity,
		QueueDepth: depth,
		Running:    running,
		Submitted:  int64(d.m.submitted.Value()),
		Deduped:    int64(d.m.deduped.Value()),
		CacheHits:  int64(d.m.cacheHits.Value()),
		Requeued:   int64(d.m.reassignments.Value()),
		Completed:  doneN,
		Failed:     failedN,
		Cancelled:  cancelledN,
	}
	if snap.Submitted > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(snap.Submitted)
	}
	return snap
}

// WriteMetrics renders the pad_fleet_* registry as Prometheus text.
func (d *Dispatcher) WriteMetrics(w io.Writer) error { return d.m.reg.WritePrometheus(w) }

// VerifyArtifacts re-hashes every replicated artifact in the dispatcher
// store.
func (d *Dispatcher) VerifyArtifacts() (jobs.IntegrityReport, error) {
	return d.store.VerifyArtifacts()
}

// ---- node protocol ----

// Register admits (or re-admits) a worker node and reconciles its rebuilt
// local state; see RegisterRequest/RegisterResponse for the contract.
func (d *Dispatcher) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Node == "" || req.Capacity < 1 {
		return RegisterResponse{}, errors.New("fabric: register needs a node name and capacity >= 1")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return RegisterResponse{}, jobs.ErrClosed
	}
	d.m.registrations.Inc()
	// A re-registration replaces the previous registration wholesale; note
	// which jobs the old registration held so unclaimed ones re-queue.
	previously := make(map[string]bool)
	if old := d.nodes[req.Node]; old != nil {
		for id := range old.inflight {
			previously[id] = true
		}
	}
	n := &dnode{
		name:     req.Node,
		capacity: req.Capacity,
		inflight: make(map[string]bool),
		lastSeen: d.clock.Now(),
	}
	d.nodes[req.Node] = n

	resp := RegisterResponse{
		LeaseSec:     d.opts.LeaseTTL.Seconds(),
		HeartbeatSec: d.opts.Heartbeat.Seconds(),
	}
	for _, id := range req.InProgress {
		j := d.jobs[id]
		switch {
		case j == nil || j.status.State.Terminal():
			resp.Drop = append(resp.Drop, id)
		case j.node != "" && j.node != req.Node && !previously[id]:
			// Reassigned to a live node elsewhere while this one was away.
			resp.Drop = append(resp.Drop, id)
		default:
			d.claimLocked(j, n, previously, true)
			resp.Keep = append(resp.Keep, id)
		}
	}
	for _, id := range req.Finished {
		j := d.jobs[id]
		if j == nil || j.status.State.Terminal() {
			continue // already recorded (or never this fleet's job)
		}
		// The artifact exists on the node but never reached us: claim the
		// job for this node and ask for the result instead of re-running.
		d.claimLocked(j, n, previously, true)
		resp.Want = append(resp.Want, id)
	}
	// Anything the old registration held that the new one no longer
	// reports was lost before the worker persisted it: re-queue.
	for id := range previously {
		d.releaseLocked(n, id)
		if j := d.jobs[id]; j != nil && j.status.State == jobs.StateRunning {
			j.node = "" // old booking is gone with the old registration
			d.requeueLocked(id, fmt.Sprintf("node %s re-registered without it", req.Node))
		}
	}
	d.placeLocked()
	return resp, nil
}

// claimLocked books a job its node already holds onto a (re-)registration:
// the worker reported it in progress, so it is booked here without touching
// the outbox, any stale booking elsewhere is released, and the job drops out
// of the previous registration's unclaimed set. Caller holds mu.
// padvet:holds d.mu
func (d *Dispatcher) claimLocked(j *fjob, onto *dnode, previously map[string]bool, adopted bool) {
	if j.status.State == jobs.StateQueued {
		d.removeFromQueueLocked(j.status.ID)
	}
	if j.node != "" && j.node != onto.name {
		if other := d.nodes[j.node]; other != nil {
			d.releaseLocked(other, j.status.ID)
		}
	}
	delete(previously, j.status.ID)
	d.assignLocked(j, onto, adopted)
}

// Heartbeat renews the node's liveness and the leases of every reported
// assignment, and returns pending cancel/drop control traffic.
func (d *Dispatcher) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodes[req.Node]
	if n == nil {
		return HeartbeatResponse{}, ErrUnknownNode
	}
	d.m.heartbeats.Inc()
	n.lastSeen = d.clock.Now()
	var resp HeartbeatResponse
	for _, id := range req.InProgress {
		j := d.jobs[id]
		if j == nil || j.node != req.Node || j.status.State != jobs.StateRunning {
			resp.Drop = append(resp.Drop, id)
			continue
		}
		j.lease = n.lastSeen.Add(d.opts.LeaseTTL)
		if j.cancelRequested {
			resp.Cancel = append(resp.Cancel, id)
		}
	}
	return resp, nil
}

// Pull delivers up to req.Max pending assignments to the node.
func (d *Dispatcher) Pull(req PullRequest) (PullResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodes[req.Node]
	if n == nil {
		return PullResponse{}, ErrUnknownNode
	}
	n.lastSeen = d.clock.Now()
	d.placeLocked() // top the outbox up before draining it
	var resp PullResponse
	for req.Max > 0 && len(n.outbox) > 0 {
		id := n.outbox[0]
		n.outbox = n.outbox[1:]
		j := d.jobs[id]
		if j == nil || j.node != req.Node || j.status.State != jobs.StateRunning {
			continue // resolved while parked in the outbox
		}
		j.delivered = true
		j.lease = n.lastSeen.Add(d.opts.LeaseTTL)
		resp.Assignments = append(resp.Assignments, Assignment{ID: id, Spec: j.spec})
		req.Max--
	}
	return resp, nil
}

// releaseAndPlaceLocked drops every booking of a reported job — the stale
// assignee (if any) and the reporting node — then refills the freed
// capacity from the unplaced queue. Caller holds mu.
// padvet:holds d.mu
func (d *Dispatcher) releaseAndPlaceLocked(j *fjob, n *dnode, id string) {
	if held := d.nodes[j.node]; held != nil {
		d.releaseLocked(held, id)
	}
	d.releaseLocked(n, id)
	d.placeLocked()
}

// Complete records a node's terminal report. Done reports carry the
// artifact, which is verified against its sha256 content address before
// being replicated into the dispatcher store; failures consume the
// assignment budget and re-queue until it is exhausted.
func (d *Dispatcher) Complete(req CompleteRequest) (CompleteResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodes[req.Node]
	if n == nil {
		return CompleteResponse{}, ErrUnknownNode
	}
	n.lastSeen = d.clock.Now()
	j := d.jobs[req.ID]
	if j == nil {
		return CompleteResponse{}, jobs.ErrNotFound
	}
	if j.status.State.Terminal() {
		defer d.releaseAndPlaceLocked(j, n, req.ID)
		if j.status.State == jobs.StateDone && req.State == jobs.StateDone {
			if req.ResultSum == j.status.ResultSum {
				return CompleteResponse{Outcome: OutcomeDuplicate}, nil
			}
			// A duplicated execution produced different bytes: that is the
			// exactly-once violation the chaos harness hunts. Keep the
			// first artifact, count the divergence loudly.
			d.m.divergent.Inc()
			return CompleteResponse{Outcome: OutcomeDivergent}, nil
		}
		return CompleteResponse{Outcome: OutcomeStale}, nil
	}
	// stale: the reporting node no longer holds the assignment (the lease
	// lapsed and the job re-queued or moved to another node). A done report
	// is still welcome — the artifact is valid wherever it ran — but a
	// failed/cancelled report from a non-assignee must not disturb the
	// current assignment.
	stale := j.node != req.Node
	switch req.State {
	case jobs.StateDone:
		if req.ResultSum == "" || jobs.Sum(req.Result) != req.ResultSum {
			// Refuse the replication: the artifact was torn somewhere
			// between the worker's disk and here.
			d.m.integrityRejects.Inc()
			if stale {
				d.releaseLocked(n, req.ID)
			} else {
				// It was this node's assignment: burn the attempt too.
				d.releaseAndPlaceLocked(j, n, req.ID)
				d.failOrRequeueLocked(j, fmt.Sprintf("artifact integrity rejected from node %s", req.Node))
			}
			return CompleteResponse{}, ErrIntegrity
		}
		sum, err := d.store.PutResult(req.ID, req.Result)
		if err != nil {
			// Keep the claim; the worker retries the ack and the lease
			// protects the assignment meanwhile.
			return CompleteResponse{}, fmt.Errorf("%w: %v", jobs.ErrStoreUnavailable, err)
		}
		d.removeFromQueueLocked(req.ID)
		j.status.State = jobs.StateDone
		j.status.Error = ""
		j.status.ResultSum = sum
		j.status.FinishedAt = d.clock.Now().UTC()
		j.status.Duration = time.Duration(req.DurationNS)
		j.result = req.Result
		_ = d.store.PutStatus(req.ID, j.status)
		close(j.done)
		d.doneN++
		n.completions++
		d.m.completions.With(req.Node, string(jobs.StateDone)).Inc()
		d.m.replications.Inc()
		d.m.replicatedBytes.Add(float64(len(req.Result)))
		d.releaseAndPlaceLocked(j, n, req.ID)
		return CompleteResponse{Outcome: OutcomeRecorded}, nil
	case jobs.StateCancelled:
		if stale {
			d.releaseLocked(n, req.ID)
			return CompleteResponse{Outcome: OutcomeStale}, nil
		}
		d.releaseAndPlaceLocked(j, n, req.ID)
		n.completions++
		d.m.completions.With(req.Node, string(jobs.StateCancelled)).Inc()
		if j.cancelRequested {
			d.terminalLocked(j, jobs.StateCancelled, req.Error)
			return CompleteResponse{Outcome: OutcomeRecorded}, nil
		}
		// The node shed the job (local drain, deadline churn) without a
		// client asking: treat like a failed attempt and retry elsewhere.
		d.failOrRequeueLocked(j, fmt.Sprintf("node %s shed the job: %s", req.Node, req.Error))
		return CompleteResponse{Outcome: OutcomeRecorded}, nil
	case jobs.StateFailed:
		if stale {
			d.releaseLocked(n, req.ID)
			return CompleteResponse{Outcome: OutcomeStale}, nil
		}
		d.releaseAndPlaceLocked(j, n, req.ID)
		n.completions++
		d.m.completions.With(req.Node, string(jobs.StateFailed)).Inc()
		// The runner's error crossed the wire by value; it re-surfaces
		// verbatim on the v1 API whether the job retries or fails here.
		d.failOrRequeueLocked(j, req.Error)
		return CompleteResponse{Outcome: OutcomeRecorded}, nil
	default:
		return CompleteResponse{}, fmt.Errorf("fabric: complete with non-terminal state %q", req.State)
	}
}

// failOrRequeueLocked consumes one unit of the assignment budget: re-queue
// while attempts remain, terminal failed otherwise. Caller holds mu.
func (d *Dispatcher) failOrRequeueLocked(j *fjob, msg string) {
	if j.status.Attempts < d.opts.MaxAttempts {
		d.requeueLocked(j.status.ID, msg)
		d.placeLocked()
		return
	}
	d.terminalLocked(j, jobs.StateFailed, msg)
}

// Report snapshots the fleet for GET /fabric/v1/nodes.
func (d *Dispatcher) Report() FleetReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	rep := FleetReport{
		QueueDepth:       len(d.queue),
		Inflight:         d.inflightLocked(),
		Assignments:      int64(d.m.assignments.Value()),
		Reassignments:    int64(d.m.reassignments.Value()),
		LeaseExpiries:    int64(d.m.leaseExpiries.Value()),
		NodeDeaths:       int64(d.m.nodeDeaths.Value()),
		IntegrityRejects: int64(d.m.integrityRejects.Value()),
		Divergent:        int64(d.m.divergent.Value()),
		Replications:     int64(d.m.replications.Value()),
	}
	names := make([]string, 0, len(d.nodes))
	for name := range d.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := d.nodes[name]
		rep.Capacity += n.capacity
		rep.Completions += n.completions
		rep.Nodes = append(rep.Nodes, NodeInfo{
			Node:        n.name,
			Capacity:    n.capacity,
			Inflight:    len(n.inflight),
			Outbox:      len(n.outbox),
			LastSeenMS:  now.Sub(n.lastSeen).Milliseconds(),
			Completions: n.completions,
		})
	}
	return rep
}
