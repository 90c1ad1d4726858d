package check

import (
	"context"
	"testing"

	"priceadaptive/internal/vmprog"
)

// rmeIncompleteFull lists the programs whose crash-bounded state space
// exceeds the suite budget even fully reduced. tournament (4 processes)
// needs 31,672,898 states under the 2-crash adversary — far past this
// suite's budget — so it stays INCOMPLETE here; its decided verdict
// (RECOVERABLE, complete) is pinned by the flag-gated
// TestTournamentVerdictDecided, which reproduces the full exploration on
// the parallel frontier engine, and recorded in BENCH_analysis.json's
// parallel section.
var rmeIncompleteFull = map[string]bool{"tournament": true}

// rmeIncompleteNone additionally lists programs whose unreduced crash
// graph exceeds the budget; the fully reduced run still pins their
// verdict, only the reduced-vs-unreduced differential is waived. Their
// unreduced runs, about 1.5M states each, then check nothing, so -short
// skips them.
var rmeIncompleteNone = map[string]bool{"tournament": true, "synthetic": true}

// TestRMEVerdictSuitePinned pins the recoverability verdict of every
// registry program under a 2-crash adversary, unreduced and fully reduced:
// the RME tier (rtas, km-rme, dm-tas, dm-queue) and the restart-recoverable
// doorway locks verify recoverable, the one-shot structures fault or wedge,
// the TAS family wedges, the crash-broken variants are rejected with an
// exclusion violation, and the two reduction modes agree on every verdict
// they both complete. It runs the frontier engine at one worker;
// TestParallelRecoverableDifferential holds that engine to an unreduced
// reference search's verdicts.
func TestRMEVerdictSuitePinned(t *testing.T) {
	ctx := context.Background()
	opts := []Option{
		// synthetic, the largest completing program, needs ~1.5M states
		// fully reduced at this crash budget.
		WithMaxStates(1_600_000),
		WithCrashes(vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}),
		WithWorkers(1),
	}
	full, err := RMEVerdictSuite(ctx, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	registry := vmprog.Registry()
	if len(full) != len(registry) {
		t.Fatalf("suite sizes: full=%d registry=%d", len(full), len(registry))
	}
	for i, e := range full {
		v := e.Verdict
		t.Logf("%s", v)
		if rmeIncompleteFull[v.Program] {
			if v.Complete {
				t.Errorf("%s: completed within the budget; remove it from rmeIncompleteFull and pin its verdict", v.Program)
			}
			continue
		}
		if !e.Match {
			t.Errorf("%s: verdict %s does not match registry expectation (recoverable=%v)",
				v.Program, v, e.Expected)
		}
		if v.Program == "rtas-dirty" && !v.Violation {
			t.Errorf("rtas-dirty: want an exclusion violation, got %s", v)
		}
		if v.Complete && !v.Recoverable && len(v.Counterexample) == 0 {
			t.Errorf("%s: non-recoverable verdict carries no counterexample", v.Program)
		}
		if testing.Short() && rmeIncompleteNone[v.Program] {
			continue
		}
		none, err := rmeSuiteEntry(ctx, registry[i], 2, append(opts, WithReduce(ReduceNone))...)
		if err != nil {
			t.Fatal(err)
		}
		nv := none.Verdict
		if !nv.Complete {
			if !rmeIncompleteNone[v.Program] {
				t.Errorf("%s: unreduced exploration unexpectedly incomplete: %s", v.Program, nv)
			}
		} else if nv.Recoverable != v.Recoverable || nv.Violation != v.Violation ||
			nv.Stuck != v.Stuck || nv.Fault != v.Fault {
			t.Errorf("%s: reduced and unreduced verdicts diverge:\n  full: %s\n  none: %s", v.Program, v, nv)
		}
	}
}
