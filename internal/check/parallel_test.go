package check

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"priceadaptive/internal/rme"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

var (
	parallelGuardFlag = flag.Bool("parallel-guard", false, "run the parallel scaling guard (wall-clock at workers 1, 2 and NumCPU against the BENCH_analysis.json parallel section)")
	tournamentFlag    = flag.Bool("tournament-verdict", false, "reproduce the decided tournament RME verdict (tens of millions of crash states; minutes of wall-clock)")
)

// TestParallelDifferential is the registry-wide differential harness of the
// frontier engine: every program, both orderings, every reduction mode,
// checked by the unreduced reference search (oracleCheck) and by Verify at
// two worker counts. The contract it enforces:
//
//   - every run's verdict (violation, completeness) equals the oracle's;
//   - results are bit-identical across worker counts (states, transitions,
//     schedules) — worker count is an execution detail, never an input to
//     the answer;
//   - on complete non-violating ReduceNone runs the state and transition
//     counts equal the oracle's exactly (with ample sets and normalizations
//     the explored graph is smaller, so only verdicts are comparable);
//   - every counterexample replays to a violation on an unreduced engine.
func TestParallelDifferential(t *testing.T) {
	workerCounts := []int{1, 3}
	for _, e := range vmprog.Registry() {
		for _, ord := range []tso.Ordering{tso.TSO, tso.PSO} {
			name := e.Name
			if ord == tso.PSO {
				name += "/pso"
			}
			t.Run(name, func(t *testing.T) {
				n := 2
				if e.FixedN > 0 {
					n = e.FixedN
				}
				if n > 2 && (testing.Short() || ord == tso.PSO) {
					t.Skip("large state space")
				}
				p, err := e.Build(n)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				budget := 1 << 21
				ref, err := oracleCheck(plainEngine(t, p, n, ord), budget)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				for _, mode := range []ReduceMode{ReduceNone, ReduceAmple, ReduceFull} {
					var first *vmprog.CheckResult
					for _, w := range workerCounts {
						par, err := Verify(ctx, p, n,
							WithOrdering(ord), WithMaxStates(budget), WithReduce(mode),
							WithWorkers(w))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", mode, w, err)
						}
						if par.Violation != ref.Violation || par.Complete != ref.Complete {
							t.Fatalf("%s workers=%d verdict violation=%v complete=%v, oracle violation=%v complete=%v",
								mode, w, par.Violation, par.Complete, ref.Violation, ref.Complete)
						}
						if mode == ReduceNone && ref.Complete {
							if par.States != ref.States || par.Transitions != ref.Transitions {
								t.Fatalf("%s workers=%d counts %d/%d, oracle %d/%d",
									mode, w, par.States, par.Transitions, ref.States, ref.Transitions)
							}
						}
						if par.Violation {
							replayViolationOn(t, p, n, ord, par.Schedule)
						}
						if first == nil {
							first = par
							continue
						}
						if par.States != first.States || par.Transitions != first.Transitions {
							t.Fatalf("%s: counts differ across worker counts: %d/%d vs %d/%d",
								mode, par.States, par.Transitions, first.States, first.Transitions)
						}
						if !slices.Equal(par.Schedule, first.Schedule) {
							t.Fatalf("%s: schedules differ across worker counts", mode)
						}
					}
				}
			})
		}
	}
}

// plainEngine builds an unreduced engine for p at n under ord.
func plainEngine(t *testing.T, p *vmprog.Program, n int, ord tso.Ordering) *vmprog.Engine {
	t.Helper()
	eng, err := vmprog.NewEngineOrdering(p, n, ord)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// replayViolationOn applies sched on a fresh unreduced engine and requires
// it to end in an exclusion violation.
func replayViolationOn(t *testing.T, p *vmprog.Program, n int, ord tso.Ordering, sched []tso.Decision) {
	t.Helper()
	eng := plainEngine(t, p, n, ord)
	st := eng.Initial()
	for i, d := range sched {
		if err := eng.Apply(st, d); err != nil {
			t.Fatalf("schedule does not replay at %d: %v", i, err)
		}
	}
	if !eng.Violated(st) {
		t.Fatal("schedule does not reproduce the violation")
	}
}

// TestParallelRecoverableDifferential holds the frontier engine's
// crash-bounded recoverability check to the unreduced reference search
// (oracleRecoverable) registry-wide under the standard 2-crash adversary,
// under TSO and PSO, unreduced and fully reduced (the recoverable
// exploration never uses ample sets, only the state normalizations), at
// two worker counts: identical verdicts (completeness, recoverability and
// the counterexample class), unreduced state and transition counts equal to
// the oracle's wherever the crash space is exhausted without a
// counterexample, results identical across worker counts, and every
// decisive counterexample replays on an unreduced engine. Programs whose
// unreduced crash space exceeds the harness budget are skipped here;
// tournament's decided verdict has its own flag-gated reproduction
// (TestTournamentVerdictDecided).
func TestParallelRecoverableDifferential(t *testing.T) {
	crash := vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
	budget := 1 << 19
	ctx := context.Background()
	for _, e := range vmprog.Registry() {
		for _, ord := range []tso.Ordering{tso.TSO, tso.PSO} {
			name := e.Name
			if ord == tso.PSO {
				name += "/pso"
			}
			t.Run(name, func(t *testing.T) {
				n := 2
				if e.FixedN > 0 {
					n = e.FixedN
				}
				if n > 2 && (testing.Short() || ord == tso.PSO) {
					t.Skip("large state space")
				}
				p, err := e.Build(n)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := oracleRecoverable(plainEngine(t, p, n, ord), budget, crash)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if !ref.Complete {
					t.Skipf("unreduced crash space exceeds the harness budget (%d states)", ref.States)
				}
				for _, mode := range []ReduceMode{ReduceNone, ReduceFull} {
					var first *rme.Verdict
					for _, w := range []int{1, 3} {
						par, err := VerifyRecoverable(ctx, p, n,
							WithOrdering(ord), WithMaxStates(budget), WithCrashes(crash),
							WithReduce(mode), WithWorkers(w))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", mode, w, err)
						}
						if par.Complete != ref.Complete || par.Recoverable != ref.Recoverable ||
							par.Violation != ref.Violation || par.Stuck != ref.Stuck || par.Fault != ref.Fault {
							t.Fatalf("%s workers=%d verdict %s, oracle complete=%v recoverable=%v violation=%v stuck=%v fault=%v",
								mode, w, par, ref.Complete, ref.Recoverable, ref.Violation, ref.Stuck, ref.Fault)
						}
						// Violation and fault runs stop at the layer of their
						// first counterexample; only explorations that exhaust
						// the crash space have comparable counts.
						if mode == ReduceNone && !ref.Violation && !ref.Fault {
							if par.States != ref.States || par.Transitions != ref.Transitions {
								t.Fatalf("%s workers=%d counts %d/%d, oracle %d/%d",
									mode, w, par.States, par.Transitions, ref.States, ref.Transitions)
							}
						}
						if !par.Recoverable {
							replayRecovCounterexample(t, p, n, ord, par.Violation, par.Fault, par.Counterexample)
						}
						if first == nil {
							first = par
							continue
						}
						if par.String() != first.String() || par.Transitions != first.Transitions ||
							!slices.Equal(par.Counterexample, first.Counterexample) {
							t.Fatalf("%s: workers=%d gives %s, workers=1 %s, or their counterexamples differ",
								mode, w, par, first)
						}
					}
				}
			})
		}
	}
}

// replayRecovCounterexample applies a recoverability counterexample on a
// fresh unreduced engine: a violation schedule must end in an exclusion
// violation, a fault schedule must fail on its final decision, and a stuck
// witness must replay cleanly (the wedge is the absence of a completing
// extension, not a step error).
func replayRecovCounterexample(t *testing.T, p *vmprog.Program, n int, ord tso.Ordering, violation, fault bool, sched []tso.Decision) {
	t.Helper()
	if len(sched) == 0 {
		t.Fatal("decisive non-recoverable verdict carries no counterexample")
	}
	eng := plainEngine(t, p, n, ord)
	st := eng.Initial()
	for i, d := range sched {
		if err := eng.Apply(st, d); err != nil {
			if fault && i == len(sched)-1 {
				return // the fault is the final decision failing
			}
			t.Fatalf("counterexample does not replay at %d: %v", i, err)
		}
	}
	if fault {
		t.Fatal("fault counterexample replayed without an error")
	}
	if violation && !eng.Violated(st) {
		t.Fatal("violation counterexample does not reproduce the violation")
	}
}

// TestParallelScalingGuard is the timing half of the BENCH parallel section
// (wall-clock cannot live in a byte-synced artifact): it re-runs each
// representative lock at workers 1, 2 and NumCPU, holds the exploration
// counts to the committed rows at every worker count, and reports the
// wall-clock curve. On hosts with at least 2 CPUs two workers must beat
// one by speedup2w on mcs and tournament, whose 1-worker runs last
// seconds; those two points are the faster of two runs each, to damp a
// shared host's noise. On hosts with at least 4 CPUs the NumCPU run must
// not be slower than the single-worker run by more than the tolerance —
// shard handoff overhead must be bought back by parallelism. Runs only
// with -parallel-guard, like the sink and padvet guards.
func TestParallelScalingGuard(t *testing.T) {
	if !*parallelGuardFlag {
		t.Skip("timing guard; run with -parallel-guard")
	}
	const speedup2w = 1.25
	want := mustCommittedParallel(t)
	grid := append([]int(nil), want.Workers...)
	ncpu := runtime.NumCPU()
	if ncpu > grid[len(grid)-1] {
		grid[len(grid)-1] = ncpu
	}
	ctx := context.Background()
	for i, pc := range parallelBenchPrograms {
		p, err := vmprog.Lookup(pc.name, pc.n)
		if err != nil {
			t.Fatal(err)
		}
		row := want.Programs[i]
		gated := ncpu >= 2 && (pc.name == "mcs" || pc.name == "tournament")
		times := make(map[int]time.Duration)
		for _, w := range grid {
			runs := 1
			if gated && w <= 2 {
				runs = 2
			}
			for r := 0; r < runs; r++ {
				start := time.Now()
				res, err := Verify(ctx, p, pc.n,
					WithMaxStates(want.MaxStates), WithReduce(ReduceNone), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				elapsed := time.Since(start)
				if res.States != row.States || res.Transitions != row.Transitions {
					t.Fatalf("%s n=%d workers=%d: counts %d/%d, committed %d/%d",
						pc.name, pc.n, w, res.States, res.Transitions, row.States, row.Transitions)
				}
				t.Logf("%s n=%d workers=%d: %d states in %v (%.0f states/s)",
					pc.name, pc.n, w, res.States, elapsed, float64(res.States)/elapsed.Seconds())
				if best, ok := times[w]; !ok || elapsed < best {
					times[w] = elapsed
				}
			}
		}
		first := times[grid[0]]
		if gated {
			if s := first.Seconds() / times[2].Seconds(); s < speedup2w {
				t.Errorf("%s n=%d: workers=2 (%v) is %.2fx workers=1 (%v), want at least %.2fx",
					pc.name, pc.n, times[2], s, first, speedup2w)
			} else {
				t.Logf("%s n=%d: workers=2 is %.2fx workers=1", pc.name, pc.n, s)
			}
		}
		for _, w := range grid {
			if w >= 4 && ncpu >= 4 && times[w] > 2*first {
				t.Errorf("%s n=%d: workers=%d run (%v) more than 2x slower than workers=%d (%v)",
					pc.name, pc.n, w, times[w], grid[0], first)
			}
		}
	}
}

// TestTournamentVerdictDecided reproduces the decided tournament RME
// verdict pinned in BENCH_analysis.json's parallel section: the 4-process
// Peterson tournament, INCOMPLETE at every CI-sized budget, is RECOVERABLE
// under the 2-crash adversary, decided by one full exploration of its
// 31.7M-state crash space. The frontier engine drops states after
// expansion, which is what makes the run fit in memory. Minutes of
// wall-clock: runs only with -tournament-verdict.
func TestTournamentVerdictDecided(t *testing.T) {
	if !*tournamentFlag {
		t.Skip("full tournament exploration; run with -tournament-verdict")
	}
	p, err := vmprog.Lookup("tournament", tournamentVerdictN)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := VerifyRecoverable(context.Background(), p, tournamentVerdictN,
		WithMaxStates(40_000_000),
		WithCrashes(vmprog.CrashOpts{MaxCrashes: tournamentVerdictCrashes, MaxPerProc: tournamentVerdictPerProc}),
		WithWorkers(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tournament n=%d: %s (%d states, %d transitions, %v)",
		tournamentVerdictN, v, v.States, v.Transitions, time.Since(start))
	if !v.Complete || !v.Recoverable {
		t.Fatalf("verdict regressed: %s", v)
	}
	if v.States != tournamentVerdictStates || v.Transitions != tournamentVerdictTransitions {
		t.Fatalf("exploration size %d/%d, pinned %d/%d",
			v.States, v.Transitions, tournamentVerdictStates, tournamentVerdictTransitions)
	}
}

// mustCommittedParallel loads the committed parallel section (the artifact
// is the guard's contract; regenerate with -update-bench).
func mustCommittedParallel(t *testing.T) *ParallelBench {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_analysis.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline BenchAnalysis
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	if baseline.Parallel == nil || len(baseline.Parallel.Programs) != len(parallelBenchPrograms) {
		t.Fatal("BENCH_analysis.json has no parallel section; regenerate with -update-bench")
	}
	for i, pc := range parallelBenchPrograms {
		row := baseline.Parallel.Programs[i]
		if row.Name != pc.name || row.N != pc.n {
			t.Fatalf("parallel section row %d is %s/%d, want %s/%d (regenerate with -update-bench)",
				i, row.Name, row.N, pc.name, pc.n)
		}
	}
	return baseline.Parallel
}
