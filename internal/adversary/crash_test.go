package adversary

import (
	"testing"

	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
)

func runCrashes(t *testing.T, seed int64) (*tso.Execution, CrashRunResult) {
	t.Helper()
	sim, err := tso.NewSimulator(tso.Config{N: 3}, mutex.Build(mutex.NewRTAS))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	res, err := RunWithCrashes(sim, CrashConfig{
		Seed: seed, CrashProb: 0.08, MaxCrashesPerProc: 2, TotalCrashes: 4, CommitProb: 0.3,
	}, 200000)
	if err != nil {
		t.Fatalf("RunWithCrashes(seed=%d): %v", seed, err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete (seed=%d)", seed)
	}
	// Copy out: the simulator dies with the test helper.
	ex := &tso.Execution{
		Events:   append([]tso.Event(nil), sim.Execution().Events...),
		Schedule: append([]tso.Decision(nil), sim.Execution().Schedule...),
	}
	return ex, res
}

// TestRunWithCrashesPanicIsNotCompleted: a run that ends because a program
// panicked is not complete.
func TestRunWithCrashesPanicIsNotCompleted(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 2}, func(s *tso.Simulator) (tso.Program, error) {
		return func(p *tso.Proc) {
			if p.ID() == 1 {
				panic("kaboom")
			}
			p.CS()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	res, err := RunWithCrashes(sim, CrashConfig{Seed: 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("a run with a panicked program reported Completed")
	}
}

// TestRunWithCrashesDeterministic pins the tentpole's determinism claim:
// the same seed reproduces the exact schedule, crash points included.
func TestRunWithCrashesDeterministic(t *testing.T) {
	a, ra := runCrashes(t, 42)
	b, rb := runCrashes(t, 42)
	if ra.Crashes != rb.Crashes || ra.Recoveries != rb.Recoveries || ra.Steps != rb.Steps {
		t.Fatalf("accounting diverged: %+v vs %+v", ra, rb)
	}
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("schedule lengths diverged: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.P != eb.P || ea.Val != eb.Val {
			t.Fatalf("event %d diverged: %s vs %s", i, ea, eb)
		}
	}
}

// TestRunWithCrashesActuallyCrashes makes sure the adversary exercises the
// crash machinery (a vacuous determinism test would be useless) and that
// every crash was matched by a recovery in a completed run.
func TestRunWithCrashesActuallyCrashes(t *testing.T) {
	crashed := false
	for seed := int64(1); seed <= 10; seed++ {
		_, res := runCrashes(t, seed)
		if res.Crashes > 0 {
			crashed = true
			if res.Recoveries != res.Crashes {
				t.Fatalf("seed %d: %d crashes but %d recoveries in a completed run", seed, res.Crashes, res.Recoveries)
			}
		}
	}
	if !crashed {
		t.Fatal("no seed produced a crash; CrashProb plumbing broken")
	}
}

// TestRunWithCrashesDifferentSeedsDiverge is a sanity check that the seed
// actually steers the schedule.
func TestRunWithCrashesDifferentSeedsDiverge(t *testing.T) {
	a, _ := runCrashes(t, 1)
	b, _ := runCrashes(t, 2)
	if len(a.Schedule) == len(b.Schedule) {
		same := true
		for i := range a.Schedule {
			if a.Schedule[i] != b.Schedule[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical schedules")
		}
	}
}
