package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"priceadaptive/internal/fault"
	"priceadaptive/internal/jobs"
)

func manualDispatcher(t *testing.T, clk *fault.Manual, opts DispatcherOptions) (*Dispatcher, *jobs.Store) {
	t.Helper()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Clock = clk
	d := NewDispatcher(store, opts)
	// No Start(): manual-clock tests drive Sweep() by hand.
	t.Cleanup(d.Close)
	return d, store
}

func submitSynthetic(t *testing.T, d *Dispatcher, i int) jobs.Status {
	t.Helper()
	params, _ := json.Marshal(jobs.SyntheticParams{I: i})
	st, _, err := d.Submit(jobs.Spec{Kind: jobs.KindSynthetic, Params: params})
	if err != nil {
		t.Fatalf("submit %d: %v", i, err)
	}
	return st
}

func mustRegister(t *testing.T, d *Dispatcher, node string, capacity int) RegisterResponse {
	t.Helper()
	resp, err := d.Register(RegisterRequest{Node: node, Capacity: capacity})
	if err != nil {
		t.Fatalf("register %s: %v", node, err)
	}
	return resp
}

// doneReport builds a valid Complete for a pulled assignment by actually
// computing the synthetic artifact the worker would produce.
func doneReport(t *testing.T, node string, a Assignment) CompleteRequest {
	t.Helper()
	ctx := context.Background() // nosleep:allow test helper
	res, err := jobs.RunSynthetic(ctx, a.Spec.Params)
	if err != nil {
		t.Fatalf("run synthetic: %v", err)
	}
	raw, _ := json.Marshal(res)
	return CompleteRequest{
		Node: node, ID: a.ID, State: jobs.StateDone,
		Result: raw, ResultSum: jobs.Sum(raw),
	}
}

// TestPlacementLeastLoaded: queued jobs land on the node with the lowest
// booking ratio, and bookings never exceed capacity.
func TestPlacementLeastLoaded(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{})
	mustRegister(t, d, "big", 4)
	mustRegister(t, d, "small", 1)

	for i := 0; i < 6; i++ {
		submitSynthetic(t, d, i)
	}
	rep := d.Report()
	if rep.Inflight != 5 {
		t.Fatalf("inflight = %d, want 5 (fleet capacity)", rep.Inflight)
	}
	if rep.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1 (over capacity)", rep.QueueDepth)
	}
	byNode := map[string]int{}
	for _, n := range rep.Nodes {
		byNode[n.Node] = n.Inflight
		if n.Inflight > n.Capacity {
			t.Fatalf("node %s over-booked: %d > %d", n.Node, n.Inflight, n.Capacity)
		}
	}
	// Ratio-based spread: the first job goes to an empty node; with 0/4 vs
	// 0/1 tie on ratio the lower-inflight/name rule picks deterministically,
	// and the 1-slot node must end up full.
	if byNode["small"] != 1 || byNode["big"] != 4 {
		t.Fatalf("placement spread = %v, want small:1 big:4", byNode)
	}
	// Pull delivers the booked assignments.
	pr, err := d.Pull(PullRequest{Node: "big", Max: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Assignments) != 4 {
		t.Fatalf("pull big = %d assignments, want 4", len(pr.Assignments))
	}
}

// TestLeaseExpiryReassignment: a delivered assignment whose lease lapses
// (worker heartbeats, but stops reporting the job) is re-queued and
// immediately re-placed — the assignment recycles with a fresh lease and a
// consumed attempt, and a late report from the lapsed execution is still
// accepted.
func TestLeaseExpiryReassignment(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{
		LeaseTTL: 10 * time.Second,
		NodeTTL:  time.Hour, // isolate lease expiry from node death
	})
	mustRegister(t, d, "a", 1)
	st := submitSynthetic(t, d, 1)
	pr, err := d.Pull(PullRequest{Node: "a", Max: 1})
	if err != nil || len(pr.Assignments) != 1 {
		t.Fatalf("pull: %v, %d assignments", err, len(pr.Assignments))
	}

	clk.Advance(5 * time.Second)
	// Heartbeat WITHOUT the job: node alive, lease not renewed.
	if _, err := d.Heartbeat(HeartbeatRequest{Node: "a"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	d.Sweep()
	rep := d.Report()
	if rep.LeaseExpiries != 1 || rep.Reassignments != 1 {
		t.Fatalf("lease_expiries=%d reassignments=%d, want 1/1", rep.LeaseExpiries, rep.Reassignments)
	}
	// The only live node has free capacity again, so the job re-placed
	// immediately: a fresh pull re-delivers it with a consumed attempt.
	got, _ := d.Get(st.ID)
	if got.State != jobs.StateRunning || got.Attempts != 2 {
		t.Fatalf("after recycle: state=%s attempts=%d, want running/2", got.State, got.Attempts)
	}
	// The reason names the node whose lease expired, and re-placement keeps
	// it.
	if want := "lease expired on node a"; got.Error != want {
		t.Fatalf("after recycle: error %q, want %q", got.Error, want)
	}
	pr, err = d.Pull(PullRequest{Node: "a", Max: 1})
	if err != nil || len(pr.Assignments) != 1 || pr.Assignments[0].ID != st.ID {
		t.Fatalf("recycled pull: %v, %+v", err, pr.Assignments)
	}
	if _, err := d.Complete(doneReport(t, "a", pr.Assignments[0])); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if got, _ = d.Get(st.ID); got.State != jobs.StateDone {
		t.Fatalf("state = %s, want done", got.State)
	}
}

// TestDuplicateAndDivergentCompletion: a second done report with identical
// bytes is a benign duplicate; one with different bytes is the
// duplicated-side-effect signal — first artifact kept, divergence counted.
func TestDuplicateAndDivergentCompletion(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, store := manualDispatcher(t, clk, DispatcherOptions{LeaseTTL: time.Hour, NodeTTL: time.Hour})
	mustRegister(t, d, "a", 1)
	mustRegister(t, d, "b", 1)
	st := submitSynthetic(t, d, 1)
	pr, _ := d.Pull(PullRequest{Node: "a", Max: 1})
	first := doneReport(t, "a", pr.Assignments[0])
	if _, err := d.Complete(first); err != nil {
		t.Fatal(err)
	}

	dup := first
	dup.Node = "b"
	resp, err := d.Complete(dup)
	if err != nil || resp.Outcome != OutcomeDuplicate {
		t.Fatalf("identical re-report: %v, outcome %q, want duplicate", err, resp.Outcome)
	}

	div := first
	div.Node = "b"
	div.Result = []byte(`{"i":1,"work":1000,"digest":666}`)
	div.ResultSum = jobs.Sum(div.Result) // self-consistent, but different bytes
	resp, err = d.Complete(div)
	if err != nil || resp.Outcome != OutcomeDivergent {
		t.Fatalf("divergent re-report: %v, outcome %q, want divergent", err, resp.Outcome)
	}
	// First writer wins: the recorded artifact did not change.
	raw, err := store.GetResult(st.ID)
	if err != nil || jobs.Sum(raw) != first.ResultSum {
		t.Fatalf("recorded artifact changed after divergence: %v", err)
	}
	if rep := d.Report(); rep.Divergent != 1 {
		t.Fatalf("divergent counter = %d, want 1", rep.Divergent)
	}
}

// TestNodeDeathReassignment: a node silent past the node TTL is declared
// dead; its whole in-flight set re-queues and its registry entry drops.
func TestNodeDeathReassignment(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{
		LeaseTTL: time.Hour,
		NodeTTL:  10 * time.Second,
	})
	mustRegister(t, d, "doomed", 2)
	a := submitSynthetic(t, d, 1)
	b := submitSynthetic(t, d, 2)
	if _, err := d.Pull(PullRequest{Node: "doomed", Max: 2}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(11 * time.Second)
	d.Sweep()
	rep := d.Report()
	if rep.NodeDeaths != 1 || len(rep.Nodes) != 0 {
		t.Fatalf("node_deaths=%d live=%d, want 1/0", rep.NodeDeaths, len(rep.Nodes))
	}
	for _, st := range []jobs.Status{a, b} {
		got, _ := d.Get(st.ID)
		if got.State != jobs.StateQueued {
			t.Fatalf("job %s state = %s, want queued", st.ID, got.State)
		}
	}
	// The dead node's protocol calls now demand re-registration.
	if _, err := d.Heartbeat(HeartbeatRequest{Node: "doomed"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat after death: %v, want ErrUnknownNode", err)
	}
}

// TestRegisterReconcile: a restarting node's rebuilt state is reconciled —
// still-assigned work is adopted (Keep), terminal work dropped, and
// finished-but-unreplicated artifacts requested (Want) — instead of re-run.
func TestRegisterReconcile(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{LeaseTTL: time.Hour, NodeTTL: time.Hour})
	mustRegister(t, d, "w", 3)
	running := submitSynthetic(t, d, 1)
	finished := submitSynthetic(t, d, 2)
	pr, err := d.Pull(PullRequest{Node: "w", Max: 3})
	if err != nil || len(pr.Assignments) != 2 {
		t.Fatalf("pull: %v, %d assignments", err, len(pr.Assignments))
	}

	// The node "restarts": it rebuilt `running` as in-progress, holds
	// `finished` terminal locally (artifact never acked), and reports one
	// id the dispatcher never issued.
	resp, err := d.Register(RegisterRequest{
		Node: "w", Capacity: 3,
		InProgress: []string{running.ID, "bogus000"},
		Finished:   []string{finished.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Keep) != 1 || resp.Keep[0] != running.ID {
		t.Fatalf("keep = %v, want [%s]", resp.Keep, running.ID)
	}
	if len(resp.Drop) != 1 || resp.Drop[0] != "bogus000" {
		t.Fatalf("drop = %v, want [bogus000]", resp.Drop)
	}
	if len(resp.Want) != 1 || resp.Want[0] != finished.ID {
		t.Fatalf("want = %v, want [%s]", resp.Want, finished.ID)
	}
	rep := d.Report()
	if rep.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after reconcile, want 0 (nothing re-queued)", rep.QueueDepth)
	}
	// Neither adopted job went back through the outbox: a fresh pull
	// delivers nothing (no re-run).
	pr, err = d.Pull(PullRequest{Node: "w", Max: 3})
	if err != nil || len(pr.Assignments) != 0 {
		t.Fatalf("post-reconcile pull: %v, %d assignments, want 0", err, len(pr.Assignments))
	}
}

// TestCompleteIntegrity: an artifact whose bytes do not hash to the
// reported checksum is refused, counted, and the job re-queued for a fresh
// attempt; the dispatcher store never records the torn artifact.
func TestCompleteIntegrity(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, store := manualDispatcher(t, clk, DispatcherOptions{LeaseTTL: time.Hour, NodeTTL: time.Hour})
	mustRegister(t, d, "w", 1)
	st := submitSynthetic(t, d, 1)
	pr, _ := d.Pull(PullRequest{Node: "w", Max: 1})
	req := doneReport(t, "w", pr.Assignments[0])
	req.Result = []byte(`{"torn":true}`) // bytes no longer match ResultSum

	_, err := d.Complete(req)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("complete with torn artifact: %v, want ErrIntegrity", err)
	}
	// The job went back through the queue and re-placed on the still-live
	// node for a fresh attempt.
	got, _ := d.Get(st.ID)
	if got.State != jobs.StateRunning || got.Attempts != 2 {
		t.Fatalf("state=%s attempts=%d, want running/2 (fresh attempt)", got.State, got.Attempts)
	}
	if _, err := store.GetResult(st.ID); err == nil {
		t.Fatal("torn artifact was replicated into the dispatcher store")
	}
	if rep := d.Report(); rep.IntegrityRejects != 1 {
		t.Fatalf("integrity_rejects = %d, want 1", rep.IntegrityRejects)
	}
}

// TestErrorRoundTripByValue: a runner failure on a worker node crosses the
// wire by value and re-surfaces verbatim on the dispatcher's v1 API once
// the assignment budget is exhausted.
func TestErrorRoundTripByValue(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{
		LeaseTTL: time.Hour, NodeTTL: time.Hour, MaxAttempts: 1,
	})
	mustRegister(t, d, "w", 1)
	st := submitSynthetic(t, d, 1)
	pr, _ := d.Pull(PullRequest{Node: "w", Max: 1})
	msg := "synthetic: divide by cucumber"
	resp, err := d.Complete(CompleteRequest{
		Node: "w", ID: pr.Assignments[0].ID, State: jobs.StateFailed, Error: msg,
	})
	if err != nil || resp.Outcome != OutcomeRecorded {
		t.Fatalf("complete failed-report: %v, outcome %q", err, resp.Outcome)
	}
	got, _ := d.Get(st.ID)
	if got.State != jobs.StateFailed || got.Error != msg {
		t.Fatalf("status = %s %q, want failed with the verbatim runner error", got.State, got.Error)
	}
}

// TestDispatcherRecover: a restarted dispatcher rebuilds from its store —
// done jobs stay done (artifact verified), in-flight ones re-queue.
func TestDispatcherRecover(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := fault.NewManual(time.Unix(0, 0))
	d := NewDispatcher(store, DispatcherOptions{Clock: clk, LeaseTTL: time.Hour, NodeTTL: time.Hour})
	mustRegister(t, d, "w", 2)
	doneJob := submitSynthetic(t, d, 1)
	runningJob := submitSynthetic(t, d, 2)
	pr, _ := d.Pull(PullRequest{Node: "w", Max: 2})
	for _, a := range pr.Assignments {
		if a.ID == doneJob.ID {
			if _, err := d.Complete(doneReport(t, "w", a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Close() // dispatcher crash: volatile fleet state gone, store persists

	store2, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDispatcher(store2, DispatcherOptions{Clock: clk, LeaseTTL: time.Hour, NodeTTL: time.Hour})
	t.Cleanup(d2.Close)
	requeued, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("recover requeued %d, want 1", requeued)
	}
	if got, _ := d2.Get(doneJob.ID); got.State != jobs.StateDone {
		t.Fatalf("done job after recover: %s, want done", got.State)
	}
	if got, _ := d2.Get(runningJob.ID); got.State != jobs.StateQueued {
		t.Fatalf("in-flight job after recover: %s, want queued", got.State)
	}
	// Submitting the done spec again is a pure cache hit.
	params, _ := json.Marshal(jobs.SyntheticParams{I: 1})
	_, outcome, err := d2.Submit(jobs.Spec{Kind: jobs.KindSynthetic, Params: params})
	if err != nil || outcome != jobs.SubmitCached {
		t.Fatalf("resubmit done spec: %v, outcome %v, want cached", err, outcome)
	}
}

// TestFleetEndToEnd: a real 1-dispatcher/2-worker fleet over the in-process
// router. A jobs.Client cannot tell the fleet from a single padserver: it
// submits on /v1, waits, and reads back verified artifacts.
func TestFleetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d, store, err := chaosDispatcher(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	router := NewRouter()
	router.Swap(Handler(d))

	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := chaosWorker(dir, i, router, nil, int64(i), jobs.RetryPolicy{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
	}

	cl := jobs.NewClient("http://dispatcher")
	cl.HTTP = router.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second) // nosleep:allow test deadline
	defer cancel()

	var ids []string
	for i := 0; i < 8; i++ {
		params, _ := json.Marshal(jobs.SyntheticParams{I: i})
		resp, err := cl.Submit(ctx, jobs.Spec{Kind: jobs.KindSynthetic, Params: params})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, resp.ID)
	}
	results, err := cl.WaitMany(ctx, ids, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait many: %v", err)
	}
	for i, id := range ids {
		r := results[id]
		if r == nil || r.State != jobs.StateDone {
			t.Fatalf("job %d (%s): %+v, want done", i, id, r)
		}
		// The artifact served over /v1 decodes to the deterministic value a
		// local execution produces.
		var got jobs.SyntheticResult
		if err := json.Unmarshal(r.Result, &got); err != nil {
			t.Fatalf("job %d: decode artifact: %v", i, err)
		}
		params, _ := json.Marshal(jobs.SyntheticParams{I: i})
		want, err := jobs.RunSynthetic(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.(*jobs.SyntheticResult).Digest {
			t.Fatalf("job %d: digest %d differs from local execution", i, got.Digest)
		}
	}
	ir, err := store.VerifyArtifacts()
	if err != nil || !ir.OK() {
		t.Fatalf("dispatcher integrity: %v %+v", err, ir)
	}
	rep := d.Report()
	if rep.Replications != 8 || rep.Inflight != 0 || rep.QueueDepth != 0 {
		t.Fatalf("fleet report: %+v, want 8 replications and a drained fleet", rep)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("live nodes = %d, want 2", len(rep.Nodes))
	}
	// Both nodes should have shared the work.
	for _, n := range rep.Nodes {
		if n.Completions == 0 {
			t.Errorf("node %s completed nothing — placement never spread", n.Node)
		}
	}
	// The Prometheus surface carries the fleet family.
	var sb strings.Builder
	if err := d.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pad_fleet_nodes_alive", "pad_fleet_replications_total", "pad_fleet_placement_seconds"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestAckAfterFailedTerminalStatusWrite: when a node's store refuses the
// terminal status write of a job its queue finished, the node still acks the
// job from its queue and brings its store up to date first, so the
// dispatcher records the job done at once instead of letting its lease
// expire and re-placing it.
func TestAckAfterFailedTerminalStatusWrite(t *testing.T) {
	dir := t.TempDir()
	d, _, err := chaosDispatcher(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	router := NewRouter()
	router.Swap(Handler(d))
	// The node writes the job's status three times: queued, running, done.
	inj := fault.NewScript().At(jobs.SiteWriteStatus, 3, fault.Fault{Kind: fault.Err})
	w, err := chaosWorker(dir, 0, router, inj, 1, jobs.RetryPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	cl := jobs.NewClient("http://dispatcher")
	cl.HTTP = router.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) // nosleep:allow test deadline
	defer cancel()
	params, _ := json.Marshal(jobs.SyntheticParams{I: 1})
	resp, err := cl.Submit(ctx, jobs.Spec{Kind: jobs.KindSynthetic, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	results, err := cl.WaitMany(ctx, []string{resp.ID}, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v (dispatcher %+v)", err, d.Report())
	}
	if r := results[resp.ID]; r.State != jobs.StateDone {
		t.Fatalf("job %s is %s, want done", resp.ID, r.State)
	}
	if rep := d.Report(); rep.LeaseExpiries != 0 || rep.Reassignments != 0 {
		t.Fatalf("dispatcher saw %d lease expiries and %d reassignments, want none", rep.LeaseExpiries, rep.Reassignments)
	}
	if st, err := w.store.GetStatus(resp.ID); err != nil || st.State != jobs.StateDone {
		t.Fatalf("node store holds %s (%v), want done", st.State, err)
	}
}

// TestFleetCancelPropagation: cancelling through the v1 API reaches the
// executing node via heartbeat control traffic and lands terminal.
func TestFleetCancelPropagation(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{LeaseTTL: time.Hour, NodeTTL: time.Hour})
	mustRegister(t, d, "w", 1)
	st := submitSynthetic(t, d, 1)
	pr, _ := d.Pull(PullRequest{Node: "w", Max: 1})
	if err := d.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	hb, err := d.Heartbeat(HeartbeatRequest{Node: "w", InProgress: []string{st.ID}})
	if err != nil || len(hb.Cancel) != 1 || hb.Cancel[0] != st.ID {
		t.Fatalf("heartbeat cancel list: %v %+v", err, hb)
	}
	resp, err := d.Complete(CompleteRequest{
		Node: "w", ID: pr.Assignments[0].ID, State: jobs.StateCancelled, Error: "cancelled",
	})
	if err != nil || resp.Outcome != OutcomeRecorded {
		t.Fatalf("cancelled complete: %v %+v", err, resp)
	}
	if got, _ := d.Get(st.ID); got.State != jobs.StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
}

// TestHandlerEnvelope: fabric-protocol errors use the unified envelope with
// fabric codes, at the right statuses.
func TestHandlerEnvelope(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{LeaseTTL: time.Hour, NodeTTL: time.Hour})
	router := NewRouter()
	router.Swap(Handler(d))
	fc := NewClient("http://dispatcher")
	fc.HTTP = router.Client()
	ctx := context.Background() // nosleep:allow test root

	_, err := fc.Heartbeat(ctx, HeartbeatRequest{Node: "ghost"})
	if !IsUnknownNode(err) {
		t.Fatalf("heartbeat from unregistered node: %v, want unknown_node envelope", err)
	}
	var apiErr *jobs.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || apiErr.Code != CodeUnknownNode {
		t.Fatalf("envelope = %+v, want 404 unknown_node", apiErr)
	}

	if _, err := fc.Register(ctx, RegisterRequest{Node: "w", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	st := submitSynthetic(t, d, 1)
	pr, _ := d.Pull(PullRequest{Node: "w", Max: 1})
	_, err = fc.Complete(ctx, CompleteRequest{
		Node: "w", ID: pr.Assignments[0].ID, State: jobs.StateDone,
		Result: []byte(`{"x":1}`), ResultSum: "deadbeef",
	})
	if !IsIntegrityReject(err) {
		t.Fatalf("torn complete: %v, want integrity_mismatch envelope", err)
	}
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
		t.Fatalf("envelope status = %+v, want 409", apiErr)
	}
	if got, _ := d.Get(st.ID); got.State == jobs.StateDone {
		t.Fatalf("state after reject = %s; the torn artifact must not land the job done", got.State)
	}

	// The fleet report is served over the same mux.
	rep, err := fc.Nodes(ctx)
	if err != nil || len(rep.Nodes) != 1 {
		t.Fatalf("nodes report: %v %+v", err, rep)
	}
	if rep.IntegrityRejects != 1 {
		t.Fatalf("report integrity_rejects = %d, want 1", rep.IntegrityRejects)
	}
}

// TestSubmitValidation: unknown kinds and saturation shed with the same
// typed errors a single-node queue uses, so the shared HTTP layer maps them
// identically.
func TestSubmitValidation(t *testing.T) {
	clk := fault.NewManual(time.Unix(0, 0))
	d, _ := manualDispatcher(t, clk, DispatcherOptions{
		LeaseTTL: time.Hour, NodeTTL: time.Hour, MaxQueued: 2,
	})
	if _, _, err := d.Submit(jobs.Spec{Kind: "no-such-kind", Params: json.RawMessage(`{}`)}); !errors.Is(err, jobs.ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	// No nodes registered: jobs queue up to MaxQueued, then shed.
	for i := 0; i < 2; i++ {
		submitSynthetic(t, d, i)
	}
	params, _ := json.Marshal(jobs.SyntheticParams{I: 99})
	if _, _, err := d.Submit(jobs.Spec{Kind: jobs.KindSynthetic, Params: params}); !errors.Is(err, jobs.ErrSaturated) {
		t.Fatalf("over MaxQueued: %v, want ErrSaturated", err)
	}
	h := d.Health()
	if h.OK {
		t.Fatal("health OK with a saturated, node-less fleet")
	}
	joined := fmt.Sprint(h.Degraded)
	for _, want := range []string{"saturated", "no_nodes"} {
		if !strings.Contains(joined, want) {
			t.Errorf("degraded reasons %v missing %q", h.Degraded, want)
		}
	}
}
