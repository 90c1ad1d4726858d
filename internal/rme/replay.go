package rme

import (
	"fmt"

	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// PassageCost is the RMR cost of one passage attempt during a replay.
type PassageCost struct {
	// RMRs is the passage's remote-memory-reference count under the
	// replay's cache model; Fences its completed serializing events.
	RMRs   int `json:"rmrs"`
	Fences int `json:"fences"`
	// Recovery marks a post-crash attempt (opened by a Recover
	// transition); Complete marks an attempt that reached its Halt.
	Recovery bool `json:"recovery,omitempty"`
	Complete bool `json:"complete,omitempty"`
}

// ReplayResult is the crash-RMR accounting of one schedule replayed
// through the fast engine.
type ReplayResult struct {
	// Model is the cache model the costs were computed under.
	Model rmr.CacheModel `json:"model"`
	// Passages[p] lists process p's passage attempts in order; crashes
	// split a passage into several attempts, recovery attempts tagged.
	Passages [][]PassageCost `json:"passages"`
	// Crashes is the number of crash decisions in the schedule.
	Crashes int `json:"crashes"`
	// MaxRecoveryRMRs is the largest RMR count over completed recovery
	// attempts - the post-recovery cost the crash-RMR bounds
	// (Chan-Woelfel) are stated over - and TotalRMRs the sum over all
	// attempts.
	MaxRecoveryRMRs int `json:"max_recovery_rmrs"`
	TotalRMRs       int `json:"total_rmrs"`
	// Violated / AllDone describe the final state of the replay.
	Violated bool `json:"violated,omitempty"`
	AllDone  bool `json:"all_done,omitempty"`
}

// ReplayRMR replays sched on a fresh state of eng, charging every access
// under the cache model exactly as rmr.Accountant charges the goroutine
// engine's event stream (an access is DSM-local only to the owner of a
// variable in one of the program's owned arrays, as AdaptLock allocates
// it; every other access is remote). The replay is the
// accounting half of the crash-schedule search: the adversary proposes
// crash points, this prices the recovery they force.
func ReplayRMR(eng *vmprog.Engine, sched []tso.Decision, model rmr.CacheModel) (*ReplayResult, error) {
	n := eng.NumProcs()
	res := &ReplayResult{Model: model, Passages: make([][]PassageCost, n)}
	lines := make([][]rmr.Mode, len(eng.Program().Vars))
	for v := range lines {
		lines[v] = make([]rmr.Mode, n)
	}
	cur := func(p int) *PassageCost {
		ps := res.Passages[p]
		if len(ps) == 0 {
			return nil
		}
		return &ps[len(ps)-1]
	}
	st := eng.Initial()
	for i, d := range sched {
		ef, err := eng.ApplyEffect(st, d)
		if err != nil {
			return nil, fmt.Errorf("rme: replay step %d (proc %d): %w", i, d.P, err)
		}
		if ef.Crash {
			res.Crashes++
			continue
		}
		if ef.Enter || ef.Recover {
			res.Passages[ef.P] = append(res.Passages[ef.P], PassageCost{Recovery: ef.Recover})
		}
		c := cur(ef.P)
		if c == nil {
			return nil, fmt.Errorf("rme: replay step %d: process %d acts outside any passage", i, ef.P)
		}
		if ef.Fence {
			c.Fences++
		}
		var kind rmr.AccessKind
		switch ef.Kind {
		case vmprog.EffectRead:
			kind = rmr.AccessRead
		case vmprog.EffectCommit:
			kind = rmr.AccessWriteCommit
		case vmprog.EffectCAS:
			kind = rmr.AccessCASSuccess
			if !ef.CASOK {
				kind = rmr.AccessCASFail
			}
		default:
			if ef.Exit {
				c.Complete = true
			}
			continue
		}
		remote := eng.Program().Owner(ef.Var) != ef.P
		if rmr.Classify(model, kind, ef.P, remote, lines[ef.Var]) {
			c.RMRs++
		}
	}
	for p := 0; p < n; p++ {
		for _, c := range res.Passages[p] {
			res.TotalRMRs += c.RMRs
			if c.Recovery && c.Complete && c.RMRs > res.MaxRecoveryRMRs {
				res.MaxRecoveryRMRs = c.RMRs
			}
		}
	}
	res.Violated = eng.Violated(st)
	res.AllDone = eng.AllDone(st)
	return res, nil
}
