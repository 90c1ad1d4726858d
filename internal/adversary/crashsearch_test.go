package adversary

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/fault"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func searchEngine(t testing.TB, name string, n int) *vmprog.Engine {
	t.Helper()
	p, err := vmprog.Lookup(name, n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCrashSearchWitness runs the adversarial search on every recoverable
// RME program and checks the result is a genuine, machine-checkable crash
// witness: at least one crash, at least one post-recovery RMR, and an exact
// replay on both an unreduced engine and one carrying pruning facts (the
// reduced-vs-unreduced differential).
func TestCrashSearchWitness(t *testing.T) {
	for _, name := range []string{"rtas", "km-rme", "dm-tas", "dm-queue"} {
		t.Run(name, func(t *testing.T) {
			const n = 2
			eng := searchEngine(t, name, n)
			res, err := CrashSearch(context.Background(), eng, CrashSearchConfig{
				Seed: 7, Budget: 20000, MaxCrashes: 2, MaxPerProc: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			w := res.Witness
			if w == nil {
				t.Fatalf("no witness found (expanded=%d candidates=%d)", res.Expanded, res.Candidates)
			}
			if w.Crashes < 1 {
				t.Errorf("witness has no crashes: %+v", w)
			}
			if w.MaxRecoveryRMRs < 1 {
				t.Errorf("witness prices recovery at 0 RMRs: %+v", w)
			}
			p, err := vmprog.Lookup(name, n)
			if err != nil {
				t.Fatal(err)
			}
			facts, err := por.Facts(p, n)
			if err != nil {
				t.Fatal(err)
			}
			reduced := searchEngine(t, name, n)
			if err := reduced.UsePruning(facts); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(searchEngine(t, name, n), reduced); err != nil {
				t.Errorf("witness failed verification: %v", err)
			}
		})
	}
}

// TestCrashSearchDeterministic pins seed-reproducibility: the same seed must
// yield the identical witness schedule.
func TestCrashSearchDeterministic(t *testing.T) {
	cfg := CrashSearchConfig{Seed: 3, Budget: 4000, MaxCrashes: 2, MaxPerProc: 1}
	a, err := CrashSearch(context.Background(), searchEngine(t, "rtas", 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrashSearch(context.Background(), searchEngine(t, "rtas", 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Witness == nil || b.Witness == nil {
		t.Fatalf("missing witness: %v / %v", a.Witness, b.Witness)
	}
	if !reflect.DeepEqual(a.Witness, b.Witness) {
		t.Errorf("same seed, different witnesses:\n%+v\n%+v", a.Witness, b.Witness)
	}
	if a.Expanded != b.Expanded || a.Candidates != b.Candidates {
		t.Errorf("same seed, different search stats: %+v vs %+v", a, b)
	}
}

// TestCrashSearchBudget pins that the expansion budget is respected.
func TestCrashSearchBudget(t *testing.T) {
	res, err := CrashSearch(context.Background(), searchEngine(t, "km-rme", 2), CrashSearchConfig{
		Seed: 1, Budget: 50, MaxCrashes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded > 50 {
		t.Errorf("expanded %d nodes, budget was 50", res.Expanded)
	}
}

// fuzzPrograms are the crash-relevant registry programs the fuzzer walks:
// the recoverable RME tier plus the deliberately broken rtas-dirty (whose
// exclusion violation is expected and does not void the crash invariants).
var fuzzPrograms = []string{"rtas", "rtas-dirty", "km-rme", "dm-tas", "dm-queue", "tas"}

// FuzzCrashSchedules drives seeded random crash schedules through the fast
// engine and asserts the crash/recover invariants on every step: a crash
// drops the write buffer and zeroes the volatile registers, recovery
// re-enters through the recover section, and a crashed process is never
// observed inside the critical section.
func FuzzCrashSchedules(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, name := range fuzzPrograms {
			const n = 2
			p, err := vmprog.Lookup(name, n)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				t.Fatal(err)
			}
			src := fault.NewSource(seed).Split(name)
			opts := vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
			st := eng.Initial()
			for step := 0; step < 400; step++ {
				if eng.AllDone(st) || eng.Violated(st) {
					break
				}
				ds := eng.EnabledDecisions(st, opts)
				if len(ds) == 0 {
					break // wedged (possible for non-recoverable programs)
				}
				d := ds[src.Intn(len(ds))]
				wasCrashed := st.Procs[d.P].Crashed
				if err := eng.Apply(st, d); err != nil {
					t.Fatalf("%s seed=%d step=%d: %v", name, seed, step, err)
				}
				pr := &st.Procs[d.P]
				if d.Crash {
					if !pr.Crashed {
						t.Fatalf("%s seed=%d: crash decision left process %d un-crashed", name, seed, d.P)
					}
					if len(pr.Buf) != 0 {
						t.Errorf("%s seed=%d: crash did not drop the write buffer of %d", name, seed, d.P)
					}
					for r, v := range pr.Regs {
						if v != 0 {
							t.Errorf("%s seed=%d: crash left volatile register %d of proc %d = %d", name, seed, r, d.P, v)
						}
					}
					if pr.PC != p.Recover {
						t.Errorf("%s seed=%d: crashed proc %d at pc %d, want recover pc %d", name, seed, d.P, pr.PC, p.Recover)
					}
					if pr.Fencing || pr.InExit {
						t.Errorf("%s seed=%d: crash left proc %d fencing=%v inexit=%v", name, seed, d.P, pr.Fencing, pr.InExit)
					}
				} else if wasCrashed && pr.Crashed {
					t.Errorf("%s seed=%d: step of crashed proc %d did not recover it", name, seed, d.P)
				}
				for id := range st.Procs {
					if st.Procs[id].Crashed && eng.PendingCS(st, id) {
						t.Errorf("%s seed=%d: crashed process %d is inside the critical section", name, seed, id)
					}
				}
			}
		}
	})
}

// TestCrashSearchDeadline holds the crash-schedule search to the
// cancellation contract: on a search far larger than its 100 ms deadline it
// returns the context's error within a second and leaves no goroutine
// behind.
func TestCrashSearchDeadline(t *testing.T) {
	eng := searchEngine(t, "mcs", 4)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := CrashSearch(ctx, eng, CrashSearchConfig{Seed: 1, Budget: 1 << 30, MaxCrashes: 2, MaxPerProc: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the context's deadline error", err)
	}
	if elapsed > time.Second {
		t.Errorf("returned %v after a 100ms deadline", elapsed)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left running, %d before the call", n, base)
	}
}
