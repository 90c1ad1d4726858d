package check

import "priceadaptive/internal/vmprog"

// The differential tests' reference search. It is deliberately small and
// independent of the frontier engine: a plain breadth-first search of the
// unreduced state graph through the engine's public step interface
// (Initial, EnabledDecisions, Apply, Hash, Violated, AllDone), with a map
// for the seen-set and, for recoverability, predecessor lists and a reverse
// walk from the AllDone states. It runs no expander, shard, outbox or
// canonicalization code, so a bug there cannot hide in both sides of a
// comparison. It keys states on vmprog.Engine.Hash, as the frontier does, and
// checks its verdict and its state budget once per layer, as the frontier
// does at its barriers, so on the same budget the two agree on
// completeness too. Test code cannot be shared between packages, so the
// engine's white-box tests carry the same search in
// internal/vmprog/oracle_test.go.

// oracleRun is what the reference search found.
type oracleRun struct {
	states, transitions     int
	violation, fault, stuck bool
	// overBudget: more than maxStates states were found before a verdict.
	overBudget bool
}

// oracle explores e's unreduced state graph breadth-first. With recov set
// it is the recoverability check: crash decisions are enabled per crash,
// AllDone states are final, an Apply error after a crash is a fault, and a
// complete run decides co-reachability of completion. Without it, crash is
// ignored and an Apply error is returned.
func oracle(e *vmprog.Engine, maxStates int, crash vmprog.CrashOpts, recov bool) (oracleRun, error) {
	if !recov {
		crash = vmprog.CrashOpts{}
	}
	root := e.Initial()
	seen := map[uint64]int{e.Hash(root): 0}
	preds := [][]int{nil} // recov: preds[j] lists the states with an edge into j
	var done []int        // recov: the AllDone states
	var r oracleRun
	layer, ids := []*vmprog.State{root}, []int{0}
	for len(layer) > 0 {
		var next []*vmprog.State
		var nextIDs []int
		for i, s := range layer {
			if e.Violated(s) {
				r.violation = true
				continue
			}
			if recov && e.AllDone(s) {
				done = append(done, ids[i])
				continue
			}
			for _, d := range e.EnabledDecisions(s, crash) {
				c := s.Clone()
				if err := e.Apply(c, d); err != nil {
					if !recov || s.Crashes == 0 {
						return r, err
					}
					r.fault = true
					continue
				}
				r.transitions++
				h := e.Hash(c)
				j, ok := seen[h]
				if !ok {
					j = len(seen)
					seen[h] = j
					next, nextIDs = append(next, c), append(nextIDs, j)
					if recov {
						preds = append(preds, nil)
					}
				}
				if recov {
					preds[j] = append(preds[j], ids[i])
				}
			}
		}
		r.states = len(seen)
		if r.violation || r.fault {
			return r, nil
		}
		if r.states > maxStates {
			r.overBudget = true
			return r, nil
		}
		layer, ids = next, nextIDs
	}
	if recov {
		coreach := make([]bool, len(seen))
		for len(done) > 0 {
			j := done[len(done)-1]
			done = done[:len(done)-1]
			if coreach[j] {
				continue
			}
			coreach[j] = true
			done = append(done, preds[j]...)
		}
		for _, ok := range coreach {
			r.stuck = r.stuck || !ok
		}
	}
	return r, nil
}

// oracleCheck is the reference for Check on an engine without pruning facts:
// the verdict, the completeness and, where the run completes without a
// violation, the exact state and transition counts. It reports no
// schedule.
func oracleCheck(e *vmprog.Engine, maxStates int) (*vmprog.CheckResult, error) {
	r, err := oracle(e, maxStates, vmprog.CrashOpts{}, false)
	if err != nil {
		return nil, err
	}
	return &vmprog.CheckResult{
		States:      r.states,
		Transitions: r.transitions,
		Complete:    !r.violation && !r.overBudget,
		Violation:   r.violation,
	}, nil
}

// oracleRecoverable is the reference for CheckRecoverable on an engine
// without pruning facts, reporting no schedules.
func oracleRecoverable(e *vmprog.Engine, maxStates int, crash vmprog.CrashOpts) (*vmprog.RecovResult, error) {
	r, err := oracle(e, maxStates, crash, true)
	if err != nil {
		return nil, err
	}
	res := &vmprog.RecovResult{
		States:      r.states,
		Transitions: r.transitions,
		Complete:    !r.overBudget,
		Violation:   r.violation,
		Fault:       r.fault && !r.violation,
		Stuck:       r.stuck,
	}
	res.Recoverable = res.Complete && !res.Violation && !res.Fault && !res.Stuck
	return res, nil
}
