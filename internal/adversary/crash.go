package adversary

import (
	"fmt"

	"priceadaptive/internal/fault"
	"priceadaptive/internal/tso"
)

// CrashConfig parameterizes a crash-scheduling adversary run. All randomness
// is drawn from a fault.Source seeded with Seed, so a fixed seed reproduces
// the exact decision stream (and therefore the exact execution).
type CrashConfig struct {
	// Seed seeds the decision stream.
	Seed int64
	// CrashProb is the per-decision probability of crashing an eligible
	// process instead of scheduling one. Defaults to 0.05.
	CrashProb float64
	// MaxCrashesPerProc bounds how often each process may crash. Defaults
	// to 1.
	MaxCrashesPerProc int
	// TotalCrashes bounds crashes across all processes. Defaults to N.
	TotalCrashes int
	// CommitProb is the probability of committing a buffered write of the
	// chosen process instead of stepping it.
	CommitProb float64
}

// CrashRunResult extends a scheduler run with crash accounting.
type CrashRunResult struct {
	tso.RunResult
	// Crashes is the number of crash decisions taken.
	Crashes int
	// Recoveries is the number of Recover transitions granted.
	Recoveries int
}

// RunWithCrashes drives the simulator with a seeded random adversary that
// may, at any decision point, crash a started process (within the configured
// bounds) instead of scheduling one. Crashed processes are recovered by
// ordinary scheduling decisions: stepping a crashed process executes its
// Recover transition and re-runs the interrupted passage. The run is
// single-threaded and therefore deterministic under Seed.
func RunWithCrashes(s *tso.Simulator, cfg CrashConfig, maxSteps int) (CrashRunResult, error) {
	n := s.Config().N
	if cfg.CrashProb == 0 {
		cfg.CrashProb = 0.05
	}
	if cfg.MaxCrashesPerProc <= 0 {
		cfg.MaxCrashesPerProc = 1
	}
	if cfg.TotalCrashes <= 0 {
		cfg.TotalCrashes = n
	}
	src := fault.NewSource(cfg.Seed)
	var res CrashRunResult
	for res.Steps < maxSteps {
		allDone := true
		for i := 0; i < n; i++ {
			if !s.Done(tso.ProcID(i)) {
				allDone = false
				break
			}
		}
		if allDone {
			res.Completed = s.Completed()
			res.Violation = s.ExclusionViolation()
			return res, nil
		}
		// Crash decision: pick a victim among started, live, not-yet-crashed
		// processes still under their crash budget.
		if res.Crashes < cfg.TotalCrashes && src.Bool(cfg.CrashProb) {
			victims := make([]tso.ProcID, 0, n)
			for i := 0; i < n; i++ {
				id := tso.ProcID(i)
				if s.Started(id) && !s.Done(id) && !s.Crashed(id) && s.Crashes(id) < cfg.MaxCrashesPerProc {
					victims = append(victims, id)
				}
			}
			if len(victims) > 0 {
				id := victims[src.Intn(len(victims))]
				if _, err := s.Crash(id); err != nil {
					return res, fmt.Errorf("crash decision %d (p%d): %w", res.Steps, id, err)
				}
				res.Crashes++
				res.Steps++
				continue
			}
		}
		runnable := make([]tso.ProcID, 0, n)
		for i := 0; i < n; i++ {
			if !s.Done(tso.ProcID(i)) {
				runnable = append(runnable, tso.ProcID(i))
			}
		}
		id := runnable[src.Intn(len(runnable))]
		var err error
		switch {
		case !s.Crashed(id) && s.BufferSize(id) > 0 && src.Bool(cfg.CommitProb):
			_, err = s.Commit(id)
		default:
			if s.Crashed(id) {
				res.Recoveries++
			}
			_, err = s.Step(id)
		}
		if err != nil {
			return res, fmt.Errorf("step %d (p%d): %w", res.Steps, id, err)
		}
		res.Steps++
	}
	res.Violation = s.ExclusionViolation()
	return res, tso.ErrStepBudget
}
