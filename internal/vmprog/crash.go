package vmprog

import "priceadaptive/internal/tso"

// Crash models a crash-stop failure of process id, mirroring
// tso.Simulator.Crash on the fast engine: the write buffer and every
// volatile register are discarded, the in-flight fence and the passage
// position are forgotten, and the PC parks at the program's recover entry
// (pc 0 when the program has none, i.e. recovery re-runs the passage from
// the top). Committed shared memory persists. Crashing is legal for a
// started, non-done, non-crashed process; the next Step of the process
// executes its Recover transition.
func (e *Engine) Crash(s *State, id int) error {
	if id < 0 || id >= e.n {
		return errInvalidDecision
	}
	p := &s.Procs[id]
	if !p.Started || p.Done || p.Crashed {
		return errInvalidDecision
	}
	p.Buf = p.Buf[:0]
	p.Regs = [NumRegs]uint64{}
	p.Fencing = false
	p.InExit = false
	p.PC = e.prog.Recover
	p.Crashed = true
	p.CrashCount++
	s.Crashes++
	return nil
}

// CrashOpts bounds crash injection during crash-enabled exploration.
type CrashOpts struct {
	// MaxCrashes is the total crash budget over all processes; 0 disables
	// crash injection entirely.
	MaxCrashes int
	// MaxPerProc bounds the crashes of any single process; 0 means only
	// the total budget applies.
	MaxPerProc int
}

// crashDecisions appends the enabled crash decisions in s under o.
func (e *Engine) crashDecisions(s *State, o CrashOpts, out []tso.Decision) []tso.Decision {
	if o.MaxCrashes <= 0 || s.Crashes >= o.MaxCrashes {
		return out
	}
	for id := range s.Procs {
		p := &s.Procs[id]
		if !p.Started || p.Done || p.Crashed {
			continue
		}
		if o.MaxPerProc > 0 && p.CrashCount >= o.MaxPerProc {
			continue
		}
		out = append(out, tso.Decision{P: tso.ProcID(id), Crash: true})
	}
	return out
}

// EnabledDecisions enumerates every enabled scheduling decision in s:
// steps, commits, and - under a non-zero crash budget - crash decisions.
// It is the enumeration the crash-schedule search and the crash fuzzer
// drive the engine with.
func (e *Engine) EnabledDecisions(s *State, o CrashOpts) []tso.Decision {
	return e.crashDecisions(s, o, e.decisions(s, nil))
}

// RecovResult is the outcome of a crash-enabled recoverability check.
type RecovResult struct {
	// States and Transitions count the explored graph.
	States      int
	Transitions int
	// Complete reports that the check reached a verdict: either the full
	// crash-bounded state space was explored, or a decisive counterexample
	// (violation or post-crash fault) was found early. It is false only
	// when the state budget ran out first.
	Complete bool
	// Violation reports a mutual-exclusion violation (possibly requiring
	// crashes to provoke); ViolationSchedule reproduces it from the
	// initial state on an unreduced engine.
	Violation         bool
	ViolationSchedule []tso.Decision
	// Fault reports a post-crash runtime fault: re-executing the passage
	// against the crashed incarnation's committed protocol state escaped
	// the program's domain (e.g. a one-shot fetch-and-increment handing
	// out a slot index past its array). A fault is decisive
	// non-recoverability. FaultSchedule reproduces it: replaying on an
	// unreduced engine, the final decision fails with FaultErr.
	Fault         bool
	FaultErr      string
	FaultSchedule []tso.Decision
	// Stuck reports a reachable state from which no continuation completes
	// all passages - the post-crash livelock of a non-recoverable lock
	// (e.g. a TAS whose owner crashed while holding the committed lock
	// word). StuckSchedule drives an unreduced engine into such a state.
	Stuck         bool
	StuckSchedule []tso.Decision
	// Recoverable is the verdict: the exploration completed, exclusion
	// held in every reachable state, and every reachable state can still
	// complete every passage.
	Recoverable bool
	shardStats
}
