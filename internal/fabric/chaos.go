package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"priceadaptive/internal/fault"
	"priceadaptive/internal/jobs"
)

// Router is an in-process http.RoundTripper over a swappable handler: the
// chaos harness's network. Swapping the handler models a dispatcher
// restart; SetDown models a partition (every request errors at the
// transport, exactly like a dead TCP endpoint).
type Router struct {
	mu   sync.Mutex
	h    http.Handler // guarded by mu
	down bool         // guarded by mu
}

// NewRouter returns a router with no handler installed (all requests fail
// until Swap).
func NewRouter() *Router { return &Router{} }

// Swap installs the handler serving subsequent requests.
func (r *Router) Swap(h http.Handler) {
	r.mu.Lock()
	r.h = h
	r.mu.Unlock()
}

// SetDown partitions (true) or heals (false) the route.
func (r *Router) SetDown(down bool) {
	r.mu.Lock()
	r.down = down
	r.mu.Unlock()
}

// RoundTrip serves the request in-process through the installed handler.
func (r *Router) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	h, down := r.h, r.down
	r.mu.Unlock()
	if down || h == nil {
		return nil, errors.New("fabric: dispatcher unreachable")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Client returns an http.Client carried by this router.
func (r *Router) Client() *http.Client { return &http.Client{Transport: r} }

// FleetChaosOptions configures the fleet chaos harness. Everything is
// derived from Seed: same seed, same kill points, same fault stream, same
// verdict.
type FleetChaosOptions struct {
	// Seed drives every random decision.
	Seed int64
	// Cycles is the number of kill/restart cycles (default 25). Every cycle
	// kills or cleanly closes worker nodes; one seeded cycle additionally
	// restarts the dispatcher itself.
	Cycles int
	// Nodes is the worker fleet size (default 3); Capacity the per-node
	// pool size (default 2).
	Nodes    int
	Capacity int
	// JobsPerCycle is how many submissions each cycle attempts (default 6);
	// JobSpace bounds the distinct identities so cycles collide with
	// earlier jobs (default 24).
	JobsPerCycle int
	JobSpace     int
	// Rules is the fault mix injected into every worker's local queue; nil
	// uses the single-node chaos spread (store errors, torn writes, worker
	// panics, stalls, context churn).
	Rules []fault.Rule
	// Retry is each worker's local retry policy (default 3 attempts, small
	// backoff).
	Retry jobs.RetryPolicy
}

func (o FleetChaosOptions) withDefaults() FleetChaosOptions {
	if o.Cycles <= 0 {
		o.Cycles = 25
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Capacity <= 0 {
		o.Capacity = 2
	}
	if o.JobsPerCycle <= 0 {
		o.JobsPerCycle = 6
	}
	if o.JobSpace <= 0 {
		o.JobSpace = 24
	}
	if o.Rules == nil {
		o.Rules = []fault.Rule{
			{SitePrefix: jobs.SiteWriteResult, Kind: fault.Torn, Rate: 0.05, Frac: 0.5},
			{SitePrefix: "store.write", Kind: fault.Err, Rate: 0.04},
			{SitePrefix: "worker", Kind: fault.Panic, Rate: 0.04},
			{SitePrefix: "worker", Kind: fault.Stall, Rate: 0.04, Delay: time.Millisecond},
			{SitePrefix: "worker", Kind: fault.Cancel, Rate: 0.03},
		}
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry = jobs.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond, Jitter: 0.2}
	}
	return o
}

// FleetChaosReport is the harness verdict, serialized as the CI fabric
// artifact.
type FleetChaosReport struct {
	Seed   int64 `json:"seed"`
	Cycles int   `json:"cycles"`
	// NodeKills are hard worker crashes, NodeCloses clean shutdowns,
	// DispatcherRestarts dispatcher crash/recover events.
	NodeKills          int `json:"node_kills"`
	NodeCloses         int `json:"node_closes"`
	DispatcherRestarts int `json:"dispatcher_restarts"`
	Submitted          int `json:"submitted"`
	DistinctJobs       int `json:"distinct_jobs"`
	// Fleet counters accumulated across dispatcher lives.
	Assignments      int64 `json:"assignments"`
	Reassignments    int64 `json:"reassignments"`
	LeaseExpiries    int64 `json:"lease_expiries"`
	NodeDeaths       int64 `json:"node_deaths"`
	IntegrityRejects int64 `json:"integrity_rejects"`
	Replications     int64 `json:"replications"`
	// WaitTimeouts counts the per-cycle settle waits that ran out their
	// deadline with jobs still unfinished: a job the fleet should finish
	// within a cycle that it does not is a stall, not slowness.
	WaitTimeouts int `json:"wait_timeouts"`
	// Lost lists jobs that never reached done even after the fault-free
	// convergence pass; DupEffects jobs whose recorded artifact checksum
	// ever changed (a duplicated side effect). Both must be empty.
	Lost       []string `json:"lost,omitempty"`
	DupEffects []string `json:"dup_effects,omitempty"`
	// Divergent counts duplicate completions whose checksums disagreed.
	Divergent int64 `json:"divergent"`
	// DispatcherIntegrity and WorkerIntegrity are the final artifact-store
	// sweeps of every store in the fleet.
	DispatcherIntegrity jobs.IntegrityReport   `json:"dispatcher_integrity"`
	WorkerIntegrity     []jobs.IntegrityReport `json:"worker_integrity"`
	// Converged is the aggregate verdict.
	Converged bool `json:"converged"`
}

// fleet chaos timing: real clocks, shrunk so 25+ cycles stay fast while the
// ordering (poll << heartbeat << nodeTTL < leaseTTL) matches production.
const (
	chaosLeaseTTL  = 400 * time.Millisecond
	chaosNodeTTL   = 300 * time.Millisecond
	chaosHeartbeat = 25 * time.Millisecond
	chaosSweep     = 20 * time.Millisecond
	chaosPoll      = 5 * time.Millisecond
)

func chaosDispatcher(dir string) (*Dispatcher, *jobs.Store, error) {
	store, err := jobs.Open(filepath.Join(dir, "dispatcher"))
	if err != nil {
		return nil, nil, err
	}
	d := NewDispatcher(store, DispatcherOptions{
		LeaseTTL:  chaosLeaseTTL,
		NodeTTL:   chaosNodeTTL,
		Heartbeat: chaosHeartbeat,
		Sweep:     chaosSweep,
	})
	if _, err := d.Recover(); err != nil {
		return nil, nil, err
	}
	d.Start()
	return d, store, nil
}

func chaosWorker(dir string, i int, router *Router, inj fault.Injector, seed int64, retry jobs.RetryPolicy, capacity int) (*Worker, error) {
	w, err := NewWorker(WorkerOptions{
		Name:       fmt.Sprintf("node%d", i),
		Dispatcher: "http://dispatcher",
		DataDir:    filepath.Join(dir, fmt.Sprintf("node%d", i)),
		Capacity:   capacity,
		HTTP:       router.Client(),
		Poll:       chaosPoll,
		Injector:   inj,
		Seed:       seed,
		Retry:      retry,
	})
	if err != nil {
		return nil, err
	}
	w.Start()
	return w, nil
}

// FleetChaos repeatedly boots a 1-dispatcher/N-worker fleet over dir,
// submits seeded jobs through the v1 API, kills and restarts worker nodes
// mid-flight (and the dispatcher itself once, at a seeded cycle), then runs
// a fault-free convergence pass. It asserts the fabric's robustness
// contract: no lost jobs, no duplicated side effects, full artifact
// integrity on every store in the fleet.
func FleetChaos(dir string, opts FleetChaosOptions) (*FleetChaosReport, error) {
	opts = opts.withDefaults()
	root := fault.NewSource(opts.Seed)
	rep := &FleetChaosReport{Seed: opts.Seed, Cycles: opts.Cycles}
	// sums pins each job's artifact checksum at first observation; any later
	// divergence is a duplicated side effect.
	sums := make(map[string]string)
	distinct := make(map[string]bool)
	// The dispatcher restarts exactly once, at a seeded cycle.
	restartAt := root.Split("dispatcher-restart").Intn(opts.Cycles)

	router := NewRouter()
	accumulate := func(d *Dispatcher) {
		r := d.Report()
		rep.Assignments += r.Assignments
		rep.Reassignments += r.Reassignments
		rep.LeaseExpiries += r.LeaseExpiries
		rep.NodeDeaths += r.NodeDeaths
		rep.IntegrityRejects += r.IntegrityRejects
		rep.Replications += r.Replications
		rep.Divergent += r.Divergent
	}

	for c := 0; c < opts.Cycles; c++ {
		src := root.Split(fmt.Sprintf("cycle%d", c))
		d, store, err := chaosDispatcher(dir)
		if err != nil {
			return rep, fmt.Errorf("cycle %d: dispatcher: %w", c, err)
		}
		router.Swap(Handler(d))
		router.SetDown(false)

		workers := make([]*Worker, opts.Nodes)
		for i := range workers {
			inj := fault.NewProb(src.Split(fmt.Sprintf("inject%d", i)), opts.Rules...)
			w, err := chaosWorker(dir, i, router, inj, src.Split(fmt.Sprintf("seed%d", i)).Int63(), opts.Retry, opts.Capacity)
			if err != nil {
				return rep, fmt.Errorf("cycle %d: worker %d: %w", c, i, err)
			}
			workers[i] = w
		}

		cl := jobs.NewClient("http://dispatcher")
		cl.HTTP = router.Client()
		var ids []string
		for i := 0; i < opts.JobsPerCycle; i++ {
			params, _ := json.Marshal(jobs.SyntheticParams{I: src.Intn(opts.JobSpace)})
			// nosleep:allow the harness is its own root; per-submit safety timeout
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			resp, err := cl.Submit(sctx, jobs.Spec{Kind: jobs.KindSynthetic, Params: params})
			scancel()
			rep.Submitted++
			if err != nil {
				continue // saturation/transport shed the submission
			}
			ids = append(ids, resp.ID)
			distinct[resp.ID] = true
		}

		// Let a seeded prefix of the cycle's jobs settle.
		settle := 0
		if len(ids) > 0 {
			settle = src.Intn(len(ids) + 1)
		}
		if settle > 0 {
			// nosleep:allow the harness is its own root; per-cycle settle deadline
			wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
			if _, err := cl.WaitMany(wctx, ids[:settle], chaosPoll); err != nil && wctx.Err() != nil {
				rep.WaitTimeouts++
			}
			wcancel()
		}

		// Mid-cycle node failure: kill (or cleanly close) a seeded victim
		// while work is in flight, then bring a fresh process up over the
		// same data dir — the restarted node re-registers with its rebuilt
		// in-progress set and the dispatcher reconciles.
		victim := src.Intn(opts.Nodes)
		if src.Bool(0.7) {
			workers[victim].Kill()
			rep.NodeKills++
		} else {
			workers[victim].Close()
			rep.NodeCloses++
		}
		if src.Bool(0.4) {
			// Sometimes the node stays down past the node TTL, so the
			// dispatcher declares it dead and reassigns its whole in-flight
			// set (not just individual lease expiries).
			// nosleep:allow the harness is its own root; bounded death-window wait
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = (fault.Wall{}).Sleep(dctx, chaosNodeTTL+3*chaosSweep)
			dcancel()
		}
		w, err := chaosWorker(dir, victim, router,
			fault.NewProb(src.Split("inject-restart"), opts.Rules...),
			src.Split("seed-restart").Int63(), opts.Retry, opts.Capacity)
		if err != nil {
			return rep, fmt.Errorf("cycle %d: restart worker %d: %w", c, victim, err)
		}
		workers[victim] = w

		// Dispatcher crash/recover, once: partition the fleet, drop the
		// dispatcher's volatile state, recover from its store, heal. The
		// workers see transport errors then unknown_node, and re-register.
		if c == restartAt {
			router.SetDown(true)
			accumulate(d)
			d.Close()
			d, store, err = chaosDispatcher(dir)
			if err != nil {
				return rep, fmt.Errorf("cycle %d: dispatcher restart: %w", c, err)
			}
			router.Swap(Handler(d))
			router.SetDown(false)
			rep.DispatcherRestarts++
		}

		// Give the cycle's remaining jobs a bounded chance to land.
		if len(ids) > 0 {
			// nosleep:allow the harness is its own root; per-cycle settle deadline
			wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
			if _, err := cl.WaitMany(wctx, ids, chaosPoll); err != nil && wctx.Err() != nil {
				rep.WaitTimeouts++
			}
			wcancel()
		}

		// Cycle teardown: every worker dies (hard or clean, seeded), then
		// the dispatcher closes. Stores persist; the next cycle's fleet
		// rebuilds from them.
		for _, w := range workers {
			if src.Bool(0.5) {
				w.Kill()
				rep.NodeKills++
			} else {
				w.Close()
				rep.NodeCloses++
			}
		}
		accumulate(d)
		d.Close()
		router.SetDown(true)

		// Cross-cycle exactly-once check: a recorded artifact checksum must
		// never change.
		entries, _, err := store.Scan()
		if err != nil {
			return rep, fmt.Errorf("cycle %d: scan: %w", c, err)
		}
		for _, e := range entries {
			if e.Status.State != jobs.StateDone || e.Status.ResultSum == "" {
				continue
			}
			if prev, ok := sums[e.ID]; ok && prev != e.Status.ResultSum {
				rep.DupEffects = append(rep.DupEffects, e.ID)
			} else if !ok {
				sums[e.ID] = e.Status.ResultSum
			}
		}
	}

	// Fault-free convergence pass: a fresh fleet, no injectors, must land
	// every job the cycles ever accepted as done with an intact artifact.
	d, store, err := chaosDispatcher(dir)
	if err != nil {
		return rep, fmt.Errorf("convergence: dispatcher: %w", err)
	}
	router.Swap(Handler(d))
	router.SetDown(false)
	workers := make([]*Worker, opts.Nodes)
	for i := range workers {
		w, err := chaosWorker(dir, i, router, nil, int64(i), jobs.RetryPolicy{}, opts.Capacity)
		if err != nil {
			return rep, fmt.Errorf("convergence: worker %d: %w", i, err)
		}
		workers[i] = w
	}
	cl := jobs.NewClient("http://dispatcher")
	cl.HTTP = router.Client()
	// nosleep:allow the harness is its own root; convergence-pass deadline
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	entries, _, err := store.Scan()
	if err != nil {
		return rep, fmt.Errorf("convergence: scan: %w", err)
	}
	for _, e := range entries {
		distinct[e.ID] = true
		if e.Status.State == jobs.StateFailed || e.Status.State == jobs.StateCancelled {
			if _, err := cl.Submit(ctx, e.Spec); err != nil {
				return rep, fmt.Errorf("convergence: resubmit %s: %w", e.ID, err)
			}
		}
	}
	all := make([]string, 0, len(distinct))
	for id := range distinct {
		all = append(all, id)
	}
	rep.DistinctJobs = len(distinct)
	results, err := cl.WaitMany(ctx, all, chaosPoll)
	if err != nil {
		return rep, fmt.Errorf("convergence: wait: %w", err)
	}
	for _, id := range all {
		r, ok := results[id]
		if !ok || r.State != jobs.StateDone {
			rep.Lost = append(rep.Lost, id)
			continue
		}
		if prev, ok := sums[id]; ok && prev != r.ResultSum {
			rep.DupEffects = append(rep.DupEffects, id)
		}
	}
	for _, w := range workers {
		w.Close()
	}
	accumulate(d)
	d.Close()

	rep.DispatcherIntegrity, err = store.VerifyArtifacts()
	if err != nil {
		return rep, err
	}
	workersOK := true
	for i := 0; i < opts.Nodes; i++ {
		ws, err := jobs.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)))
		if err != nil {
			return rep, err
		}
		ir, err := ws.VerifyArtifacts()
		if err != nil {
			return rep, err
		}
		rep.WorkerIntegrity = append(rep.WorkerIntegrity, ir)
		if !ir.OK() {
			workersOK = false
		}
	}
	rep.Converged = len(rep.Lost) == 0 && len(rep.DupEffects) == 0 &&
		rep.Divergent == 0 && rep.DispatcherIntegrity.OK() && workersOK
	return rep, nil
}
