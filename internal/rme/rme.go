// Package rme is the recoverable-mutual-exclusion tier: recoverability
// verdicts for VM programs under a bounded crash adversary, crash-RMR
// replay accounting (post-recovery passage cost charged separately, after
// Chan-Woelfel, arXiv:2106.03185), and machine-checked worst-case crash
// witnesses.
//
// The underlying exploration is vmprog.(*Engine).CheckRecoverable: a
// program is recoverable iff, within the crash budget, mutual exclusion
// holds in every reachable state and every reachable state can still reach
// completion of all passages. Non-recoverable programs come with a pinned
// counterexample schedule - either a post-crash exclusion violation or a
// wedged (non-co-reachable) state - that replays on an unreduced engine.
package rme

import (
	"context"
	"fmt"

	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Verdict is the recoverability result for one program at one process
// count under one crash budget.
type Verdict struct {
	// Program is the program name; N the process count.
	Program string `json:"program"`
	N       int    `json:"n"`
	// MaxCrashes / MaxPerProc echo the crash budget checked under.
	MaxCrashes int `json:"max_crashes"`
	MaxPerProc int `json:"max_per_proc,omitempty"`
	// Recoverable is the verdict; only meaningful when Complete.
	Recoverable bool `json:"recoverable"`
	Complete    bool `json:"complete"`
	// Violation / Stuck / Fault name the failure class of a
	// non-recoverable program; Counterexample reproduces it from the
	// initial state on an unreduced engine (for a fault, the final
	// decision fails with FaultErr).
	Violation      bool           `json:"violation,omitempty"`
	Stuck          bool           `json:"stuck,omitempty"`
	Fault          bool           `json:"fault,omitempty"`
	FaultErr       string         `json:"fault_err,omitempty"`
	Counterexample []tso.Decision `json:"counterexample,omitempty"`
	// States / Transitions size the crash-bounded exploration.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
}

// String renders the verdict as one line.
func (v *Verdict) String() string {
	verdict := "RECOVERABLE"
	switch {
	case !v.Complete:
		verdict = "INCOMPLETE"
	case v.Violation:
		verdict = "NOT RECOVERABLE (exclusion violated post-crash)"
	case v.Stuck:
		verdict = "NOT RECOVERABLE (wedged post-crash state)"
	case v.Fault:
		verdict = "NOT RECOVERABLE (runtime fault post-crash: " + v.FaultErr + ")"
	}
	return fmt.Sprintf("%s n=%d crashes<=%d: %s (states=%d, counterexample=%d steps)",
		v.Program, v.N, v.MaxCrashes, verdict, v.States, len(v.Counterexample))
}

// CheckRecoverability runs the crash-bounded recoverability check on the
// engine (which carries the program, the process count and any installed
// pruning facts - ample reduction is never applied by the underlying
// exploration, only the state normalizations) with the frontier engine
// configured by po.
func CheckRecoverability(ctx context.Context, eng *vmprog.Engine, po vmprog.ParallelOpts, o vmprog.CrashOpts) (*Verdict, error) {
	res, err := eng.CheckRecoverable(ctx, po, o)
	if err != nil {
		return nil, err
	}
	return verdictFrom(eng, res, o), nil
}

func verdictFrom(eng *vmprog.Engine, res *vmprog.RecovResult, o vmprog.CrashOpts) *Verdict {
	v := &Verdict{
		Program:     eng.Program().Name,
		N:           eng.NumProcs(),
		MaxCrashes:  o.MaxCrashes,
		MaxPerProc:  o.MaxPerProc,
		Recoverable: res.Recoverable && res.Complete,
		Complete:    res.Complete,
		Violation:   res.Violation,
		Stuck:       res.Stuck,
		Fault:       res.Fault,
		FaultErr:    res.FaultErr,
		States:      res.States,
		Transitions: res.Transitions,
	}
	switch {
	case res.Violation:
		v.Counterexample = res.ViolationSchedule
	case res.Stuck:
		v.Counterexample = res.StuckSchedule
	case res.Fault:
		v.Counterexample = res.FaultSchedule
	}
	return v
}
