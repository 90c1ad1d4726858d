package vmprog

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"priceadaptive/internal/tso"
)

// checkProgs are small unreduced workloads the white-box frontier tests run;
// the registry-wide differentials with reduction facts live in
// internal/check (TestParallelDifferential), which can import the analyzer.
var checkProgs = []struct {
	name string
	n    int
	pso  bool
}{
	{"peterson", 2, false},
	{"peterson-nofence", 2, false}, // violating
	{"tas", 2, false},
	{"bakery", 2, true},
	{"filter", 3, false},
}

func buildEngine(t *testing.T, name string, n int, pso bool) *Engine {
	t.Helper()
	p, err := Lookup(name, n)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	ord := tso.TSO
	if pso {
		ord = tso.PSO
	}
	e, err := NewEngineOrdering(p, n, ord)
	if err != nil {
		t.Fatalf("NewEngineOrdering(%s): %v", name, err)
	}
	return e
}

func replayViolation(t *testing.T, name string, n int, pso bool, sched []tso.Decision) {
	t.Helper()
	e := buildEngine(t, name, n, pso)
	st := e.Initial()
	for i, d := range sched {
		if err := e.Apply(st, d); err != nil {
			t.Fatalf("%s: schedule step %d does not replay: %v", name, i, err)
		}
	}
	if !e.Violated(st) {
		t.Fatalf("%s: replayed schedule does not end in a violation", name)
	}
}

// TestCheckMatchesOracle runs the frontier engine at several worker counts
// against the reference search on unreduced engines: verdicts must agree
// everywhere, counts must agree across worker counts always and with the
// oracle on complete non-violating runs (where the explored set is the full
// reachable space), and every counterexample must replay on a fresh
// engine.
func TestCheckMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range checkProgs {
		ref, err := oracleCheck(buildEngine(t, tc.name, tc.n, tc.pso), 1<<21)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		var first *CheckResult
		for _, workers := range []int{1, 2, 3} {
			par, err := buildEngine(t, tc.name, tc.n, tc.pso).Check(ctx, ParallelOpts{Workers: workers, MaxStates: 1 << 21})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if par.Violation != ref.Violation || par.Complete != ref.Complete {
				t.Fatalf("%s w=%d: verdict mismatch: violation=%v complete=%v, oracle %v/%v",
					tc.name, workers, par.Violation, par.Complete, ref.Violation, ref.Complete)
			}
			if par.Violation {
				replayViolation(t, tc.name, tc.n, tc.pso, par.Schedule)
			} else if par.Complete {
				if par.States != ref.States || par.Transitions != ref.Transitions {
					t.Fatalf("%s w=%d: counts diverge: %d/%d, oracle %d/%d",
						tc.name, workers, par.States, par.Transitions, ref.States, ref.Transitions)
				}
			}
			if first == nil {
				first = par
				continue
			}
			if par.States != first.States || par.Transitions != first.Transitions ||
				par.Violation != first.Violation || !schedEqual(par.Schedule, first.Schedule) {
				t.Fatalf("%s: results differ across worker counts: w=%d got %d/%d, w=1 got %d/%d, or their schedules differ",
					tc.name, workers, par.States, par.Transitions, first.States, first.Transitions)
			}
		}
	}
}

// TestParallelCrossShardRouting pins the hash-partitioned routing: with more
// than one shard, successor states land on shards other than their parent's
// (the cross-shard handoff every multi-worker run exercises), and the
// crumbs reconstructed across that handoff still replay.
func TestParallelCrossShardRouting(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{2, 3, 4} {
		e := buildEngine(t, "peterson", 2, false)
		res, err := e.Check(ctx, ParallelOpts{Workers: workers})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if res.crossShard == 0 {
			t.Fatalf("w=%d: no successor crossed shards; routing is not partitioning the hash space", workers)
		}
		t.Logf("w=%d: %d/%d successors handed off across shards", workers, res.crossShard, res.Transitions)
	}
	// One shard cannot hand off.
	e := buildEngine(t, "peterson", 2, false)
	res, err := e.Check(ctx, ParallelOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.crossShard != 0 {
		t.Fatalf("w=1: %d successors crossed shards out of one shard", res.crossShard)
	}
}

// TestCheckRecoverableMatchesOracle compares CheckRecoverable at several
// worker counts against the reference search on crash-enabled workloads:
// verdicts agree, counts agree on complete runs without a violation or a
// fault (the crash exploration has no ample reduction, so the explored
// graph is the full crash-bounded space either way), results agree across
// worker counts, and counterexample schedules replay.
func TestCheckRecoverableMatchesOracle(t *testing.T) {
	ctx := context.Background()
	crash := CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
	for _, name := range []string{"rtas", "tas", "peterson", "anderson", "mcs"} {
		ref, err := oracleRecoverable(buildEngine(t, name, 2, false), 1<<21, crash)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		var first *RecovResult
		for _, workers := range []int{1, 2, 3} {
			par, err := buildEngine(t, name, 2, false).CheckRecoverable(ctx, ParallelOpts{Workers: workers, MaxStates: 1 << 21}, crash)
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			if par.Recoverable != ref.Recoverable || par.Complete != ref.Complete || par.Violation != ref.Violation ||
				par.Stuck != ref.Stuck || par.Fault != ref.Fault {
				t.Fatalf("%s w=%d: verdict mismatch: recoverable=%v complete=%v violation=%v stuck=%v fault=%v, oracle %v/%v/%v/%v/%v",
					name, workers, par.Recoverable, par.Complete, par.Violation, par.Stuck, par.Fault,
					ref.Recoverable, ref.Complete, ref.Violation, ref.Stuck, ref.Fault)
			}
			if par.Complete && !par.Violation && !par.Fault {
				if par.States != ref.States || par.Transitions != ref.Transitions {
					t.Fatalf("%s w=%d: counts diverge: %d/%d, oracle %d/%d",
						name, workers, par.States, par.Transitions, ref.States, ref.Transitions)
				}
			}
			replayRecovWitness(t, name, par)
			if first == nil {
				first = par
				continue
			}
			if par.States != first.States || par.Transitions != first.Transitions ||
				par.Violation != first.Violation || par.Stuck != first.Stuck || par.Fault != first.Fault {
				t.Fatalf("%s: results differ across worker counts (w=%d vs w=1)", name, workers)
			}
			if !schedEqual(par.ViolationSchedule, first.ViolationSchedule) ||
				!schedEqual(par.StuckSchedule, first.StuckSchedule) ||
				!schedEqual(par.FaultSchedule, first.FaultSchedule) {
				t.Fatalf("%s: witness schedules differ across worker counts (w=%d vs w=1)", name, workers)
			}
		}
	}
}

func schedEqual(a, b []tso.Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayRecovWitness replays whichever counterexample the result carries on
// a fresh unreduced engine and asserts it demonstrates its class.
func replayRecovWitness(t *testing.T, name string, res *RecovResult) {
	t.Helper()
	p, err := Lookup(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case res.Violation:
		st := e.Initial()
		for i, d := range res.ViolationSchedule {
			if err := e.Apply(st, d); err != nil {
				t.Fatalf("%s: violation schedule step %d: %v", name, i, err)
			}
		}
		if !e.Violated(st) {
			t.Fatalf("%s: violation schedule does not end in a violation", name)
		}
	case res.Fault:
		st := e.Initial()
		n := len(res.FaultSchedule)
		for i, d := range res.FaultSchedule[:n-1] {
			if err := e.Apply(st, d); err != nil {
				t.Fatalf("%s: fault schedule step %d: %v", name, i, err)
			}
		}
		if err := e.Apply(st, res.FaultSchedule[n-1]); err == nil {
			t.Fatalf("%s: fault schedule's final decision applied cleanly", name)
		}
	case res.Stuck:
		st := e.Initial()
		for i, d := range res.StuckSchedule {
			if err := e.Apply(st, d); err != nil {
				t.Fatalf("%s: stuck schedule step %d: %v", name, i, err)
			}
		}
		if e.AllDone(st) || e.Violated(st) {
			t.Fatalf("%s: stuck schedule ends done=%v violated=%v", name, e.AllDone(st), e.Violated(st))
		}
	}
}

// TestParallelBatchedInserts runs both frontier engines at 1-4 workers on
// programs whose layers overflow a shard's batch many times: filter at n=3
// (capped, so many layers of thousands of successors), and bakery at n=2,
// crash-free and under two crashes: under TSO, where both engines run to
// completion without a counterexample, and under PSO, where both find a
// violation. Counts and schedules must not depend on the worker count;
// complete runs without a counterexample must match the reference search's
// counts, and every violation schedule must replay. The one-worker
// runs and the multi-worker runs must have inserted batches mid-layer, and
// the multi-worker runs must have found a shard busy at least once, so a
// fall back to inserting only when a worker runs dry, or to waiting on
// every batch, does not pass unseen.
func TestParallelBatchedInserts(t *testing.T) {
	ctx := context.Background()
	var stats shardStats
	compared := 0 // runs whose counts were compared with the oracle
	for _, tc := range []struct {
		name      string
		n         int
		pso       bool
		maxStates int // 0: run to completion and compare with the oracle
		crash     CrashOpts
	}{
		{"filter", 3, false, 20000, CrashOpts{}},
		{"bakery", 2, false, 0, CrashOpts{MaxCrashes: 2, MaxPerProc: 1}},
		{"bakery", 2, true, 0, CrashOpts{MaxCrashes: 2, MaxPerProc: 1}},
	} {
		max := tc.maxStates
		if max == 0 {
			max = 1 << 20
		}
		var ref *CheckResult
		var refR *RecovResult
		if tc.maxStates == 0 {
			var err error
			if ref, err = oracleCheck(buildEngine(t, tc.name, tc.n, tc.pso), max); err != nil {
				t.Fatal(err)
			}
			if refR, err = oracleRecoverable(buildEngine(t, tc.name, tc.n, tc.pso), max, tc.crash); err != nil {
				t.Fatal(err)
			}
		}
		var first *CheckResult
		var firstR *RecovResult
		for workers := 1; workers <= 4; workers++ {
			po := ParallelOpts{Workers: workers, MaxStates: max}
			par, err := buildEngine(t, tc.name, tc.n, tc.pso).Check(ctx, po)
			if err != nil {
				t.Fatal(err)
			}
			parR, err := buildEngine(t, tc.name, tc.n, tc.pso).CheckRecoverable(ctx, po, tc.crash)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 && (par.flushes == 0 || parR.flushes == 0) {
				t.Fatalf("%s w=1: no batch was inserted mid-layer (%d, %d)", tc.name, par.flushes, parR.flushes)
			}
			if workers > 1 {
				stats.take(&par.shardStats)
				stats.take(&parR.shardStats)
			}
			if ref != nil {
				if par.Violation != ref.Violation || par.Complete != ref.Complete {
					t.Fatalf("%s w=%d: verdict violation=%v complete=%v, oracle %v/%v",
						tc.name, workers, par.Violation, par.Complete, ref.Violation, ref.Complete)
				}
				if par.Complete && !par.Violation {
					if par.States != ref.States || par.Transitions != ref.Transitions {
						t.Fatalf("%s w=%d: counts %d/%d, oracle %d/%d",
							tc.name, workers, par.States, par.Transitions, ref.States, ref.Transitions)
					}
					compared++
				}
				if parR.Recoverable != refR.Recoverable || parR.Complete != refR.Complete {
					t.Fatalf("%s w=%d: recoverable=%v complete=%v, oracle %v/%v",
						tc.name, workers, parR.Recoverable, parR.Complete, refR.Recoverable, refR.Complete)
				}
				if parR.Complete && !parR.Violation && !parR.Fault && !refR.Violation && !refR.Fault {
					if parR.States != refR.States || parR.Transitions != refR.Transitions {
						t.Fatalf("%s w=%d: recoverable counts %d/%d, oracle %d/%d",
							tc.name, workers, parR.States, parR.Transitions, refR.States, refR.Transitions)
					}
					compared++
				}
			}
			if par.Violation {
				replayViolation(t, tc.name, tc.n, tc.pso, par.Schedule)
			}
			if parR.Violation {
				replayViolation(t, tc.name, tc.n, tc.pso, parR.ViolationSchedule)
			}
			if first == nil {
				first, firstR = par, parR
				continue
			}
			if par.States != first.States || par.Transitions != first.Transitions ||
				par.Violation != first.Violation || par.Complete != first.Complete || !schedEqual(par.Schedule, first.Schedule) {
				t.Fatalf("%s: w=%d explores %d/%d, w=1 %d/%d, or their schedules differ",
					tc.name, workers, par.States, par.Transitions, first.States, first.Transitions)
			}
			if parR.States != firstR.States || parR.Transitions != firstR.Transitions ||
				parR.Recoverable != firstR.Recoverable || parR.Complete != firstR.Complete ||
				!schedEqual(parR.ViolationSchedule, firstR.ViolationSchedule) ||
				!schedEqual(parR.StuckSchedule, firstR.StuckSchedule) ||
				!schedEqual(parR.FaultSchedule, firstR.FaultSchedule) {
				t.Fatalf("%s: recoverable w=%d explores %d/%d, w=1 %d/%d, or their witnesses differ",
					tc.name, workers, parR.States, parR.Transitions, firstR.States, firstR.Transitions)
			}
		}
	}
	if compared != 8 {
		t.Fatalf("%d runs compared counts with the oracle, want 8 (bakery under TSO, both engines, 1-4 workers)", compared)
	}
	t.Logf("2-4 workers: %d batches inserted mid-layer, %d found their shard busy", stats.flushes, stats.deferrals)
	if stats.flushes == 0 {
		t.Fatal("no multi-worker run inserted a batch mid-layer")
	}
	if stats.deferrals == 0 {
		if runtime.GOMAXPROCS(0) < 2 {
			t.Skip("one P: workers never hold a shard lock at the same time")
		}
		t.Fatal("no worker ever found a shard busy at a full batch: TryLock deferral is not exercised")
	}
}

// TestOutboxProtocol pins how a worker hands successors to a shard: nothing
// before batchMin pending, TryLock from batchMin on (a busy shard defers
// the batch and the worker keeps it), a blocking Lock at batchCap, so no
// outbox ever holds more than batchCap successors, and drain inserting the
// rest.
func TestOutboxProtocol(t *testing.T) {
	g := newPGraph(2, false)
	w := &pworker{g: g, out: make([]outbox, 2)}
	sh := &g.shards[1]
	h := uint64(1) // odd fingerprints: all owned by shard 1
	push := func(k int) {
		for ; k > 0; k-- {
			w.push(1, pending{h: h, parent: 7, dec: 3}, []uint64{h})
			h += 2
		}
	}
	recorded := func() int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.parent.len()
	}

	push(batchMin - 1)
	if n := recorded(); n != 0 || w.flushes != 0 {
		t.Fatalf("%d successors recorded and %d batches inserted below batchMin", n, w.flushes)
	}
	sh.mu.Lock()
	push(1)
	if w.deferrals != 1 || len(w.out[1].items) != batchMin {
		t.Fatalf("busy shard at batchMin: %d deferrals, %d pending; want 1, %d", w.deferrals, len(w.out[1].items), batchMin)
	}
	sh.mu.Unlock()
	push(1)
	if n := recorded(); n != batchMin+1 || w.flushes != 1 || len(w.out[1].items) != 0 {
		t.Fatalf("free shard: %d recorded, %d batches, %d pending; want %d, 1, 0", n, w.flushes, len(w.out[1].items), batchMin+1)
	}

	// With the shard held, the worker defers until batchCap and then waits.
	// The pause only gives a worker that does not wait the time to finish
	// and be caught; a waiting worker passes however long it takes to get
	// there.
	sh.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		push(batchCap + 10)
	}()
	select {
	case <-done:
		t.Fatal("the worker went past batchCap pending successors without waiting for the shard")
	case <-time.After(50 * time.Millisecond):
	}
	sh.mu.Unlock()
	<-done
	if n := recorded(); n != batchMin+1+batchCap || w.flushes != 2 || len(w.out[1].items) != 10 {
		t.Fatalf("after the cap: %d recorded, %d batches, %d pending; want %d, 2, 10",
			n, w.flushes, len(w.out[1].items), batchMin+1+batchCap)
	}
	if want := 1 + batchCap - batchMin; w.deferrals != want {
		t.Fatalf("%d deferrals, want %d", w.deferrals, want)
	}

	// A worker that runs dry inserts what it still holds, below batchMin.
	w.drain(0)
	if n := recorded(); n != batchMin+1+batchCap+10 || w.flushes != 2 || len(w.out[1].items) != 0 {
		t.Fatalf("after drain: %d recorded, %d batches, %d pending; want %d, 2, 0",
			n, w.flushes, len(w.out[1].items), batchMin+1+batchCap+10)
	}
}

// TestEdgeRecords drives the edge records and the predecessor index built
// from them against a map-based reverse index: seeded random records in one
// to three workers' logs, from and to ids spread over three shards
// (local*3 + shard), successor ids written in shuffled order as batch
// inserts write them. Records without successors are common, and every 500
// records one is sized to the space its block has left, so that it fills
// the block exactly or needs one word more, which must start the next
// block. Every predecessor multiset must match the reference, and the index
// must drop every block it read. A record longer than a block, and a log
// whose next block would overflow a 32-bit slot, must fail with an error.
func TestEdgeRecords(t *testing.T) {
	const shards, locals = 3, 4000
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + int(seed%3)
		id := func() uint32 { return uint32(rng.Intn(locals)*shards + rng.Intn(shards)) }
		logs := make([]edgeRecs, workers)
		want := map[uint32][]uint32{} // successor id -> predecessor ids
		type write struct {
			w        int
			slot, to uint32
		}
		var writes []write
		edges, empty, filled, straddled := 0, 0, 0, 0
		for rec := 0; rec < 8000; rec++ {
			w := rng.Intn(workers)
			r := &logs[w]
			k := rng.Intn(6)
			last, used := len(r.blocks)-1, 0
			if last >= 0 {
				used = len(r.blocks[last])
				if left := recBlock - used; rec%500 == 499 && left >= 2 {
					k = left - 2 + rng.Intn(2)
				}
			}
			from := id()
			slot, err := r.reserve(from, k)
			if err != nil {
				t.Fatalf("seed %d: reserve(k=%d): %v", seed, k, err)
			}
			switch fits := last >= 0 && used+2+k <= recBlock; {
			case fits && slot != uint32(last)<<recShift|uint32(used+2):
				t.Fatalf("seed %d: a record that fits block %d at %d got slot %#x", seed, last, used, slot)
			case !fits && slot != uint32(last+1)<<recShift|2:
				t.Fatalf("seed %d: a record of %d words with %d left in its block got slot %#x, want the start of block %d",
					seed, 2+k, recBlock-used, slot, last+1)
			case fits && used+2+k == recBlock:
				filled++
			case !fits && last >= 0 && used+1+k == recBlock:
				straddled++
			}
			if k == 0 {
				empty++
			}
			for i := 0; i < k; i++ {
				to := id()
				writes = append(writes, write{w, slot + uint32(i), to})
				want[to] = append(want[to], from)
			}
			edges += k
		}
		if empty == 0 || filled == 0 || straddled == 0 {
			t.Fatalf("seed %d: %d empty records, %d block-filling, %d straddling; want each", seed, empty, filled, straddled)
		}
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
		for _, wr := range writes {
			logs[wr.w].set(wr.slot, wr.to)
		}
		ptrs := make([]*edgeRecs, workers)
		for i := range logs {
			ptrs[i] = &logs[i]
		}
		start, preds, err := predIndex(locals*shards, ptrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds) != edges || int(start[locals*shards]) != edges {
			t.Fatalf("seed %d: %d predecessors, index ends at %d; want %d edges", seed, len(preds), start[locals*shards], edges)
		}
		for j := uint32(0); j < locals*shards; j++ {
			got := slices.Clone(preds[start[j]:start[j+1]])
			ref := want[j]
			slices.Sort(got)
			slices.Sort(ref)
			if !slices.Equal(got, ref) {
				t.Fatalf("seed %d: predecessors of %d are %v, want %v", seed, j, got, ref)
			}
		}
		for i := range logs {
			if logs[i].blocks != nil {
				t.Fatalf("seed %d: worker %d's record blocks were not dropped", seed, i)
			}
		}
		t.Logf("seed %d, %d workers: %d edges, %d empty records, %d filled a block, %d started a new one",
			seed, workers, edges, empty, filled, straddled)
	}

	var r edgeRecs
	if _, err := r.reserve(0, recBlock-1); err == nil {
		t.Fatal("a record one word longer than a block was accepted")
	}
	if slot, err := r.reserve(0, recBlock-2); err != nil || slot != 2 {
		t.Fatalf("a record exactly one block long: slot %d, %v", slot, err)
	}
	full := make([]uint32, recBlock)
	r.blocks = make([][]uint32, maxRecBlocks-1, maxRecBlocks)
	for i := range r.blocks {
		r.blocks[i] = full
	}
	slot, err := r.reserve(5, 3)
	if err != nil || slot != uint32(maxRecBlocks-1)<<recShift|2 {
		t.Fatalf("the last block a slot reaches: slot %#x, %v", slot, err)
	}
	r.set(slot+2, 9)
	r.blocks[maxRecBlocks-1] = full
	if _, err := r.reserve(5, 0); err == nil {
		t.Fatal("a record past the last block a uint32 slot reaches was accepted")
	}
}
