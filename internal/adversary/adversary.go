// Package adversary implements the paper's lower-bound construction
// (Sections 3 and 4) as an executable scheduling strategy against a concrete
// read/write mutual-exclusion algorithm running on the TSO simulator.
//
// Starting from H_0, in which every process executes only its Enter event,
// the construction inductively builds executions H_1, H_2, ... In H_i
// exactly i processes have completed a passage and every remaining active
// process has completed exactly i fences and executed exactly l_i critical
// events while still inside a single passage. Each induction step runs three
// phases:
//
//   - the read phase (Lemma 6): active processes advance to their next
//     special event; processes about to perform conflicting critical reads
//     are thinned with a Turán independent set so no information flows
//     between active processes;
//   - the write phase (Lemma 7): buffered writes are committed; in the
//     high-contention case all surviving processes write the same variable
//     in increasing ID order, so the largest ID ends up visible on it;
//   - the regularization phase (Lemma 8): the largest-ID active process
//     p_max runs to completion, with the single invisible process it would
//     observe erased before each of its critical events.
//
// Erasure is realized by deterministic replay (tso.Simulator.Replay): the
// invisible-set properties guarantee the retained processes observe
// identical values, and the construction verifies this.
//
// Against an f-adaptive algorithm the construction forces one additional
// fence per induction step (Theorem 1). Against a non-adaptive algorithm it
// instead terminates with a NonAdaptiveCertificate: a concrete execution of
// total contention i+1 in which some process exceeds the claimed f(i+1)
// critical-event budget. Either outcome is a faithful reproduction of the
// paper's dichotomy.
package adversary

import (
	"context"
	"errors"
	"fmt"

	"priceadaptive/internal/bounds"
	"priceadaptive/internal/obsv"
	"priceadaptive/internal/tso"
)

// CheckLevel selects how much invariant verification runs between phases.
type CheckLevel int

const (
	// CheckNone runs no invariant verification (fastest).
	CheckNone CheckLevel = iota
	// CheckInvariants verifies IN1/IN2/IN4/IN5, semi-regularity and
	// orderedness after every phase.
	CheckInvariants
	// CheckFull additionally verifies IN3 by replaying erasures (slow;
	// intended for tests at small N).
	CheckFull
)

// Config parameterizes a construction run.
type Config struct {
	// N is the number of processes.
	N int
	// Model selects DSM or CC. Defaults to CC.
	Model tso.Model
	// Algorithm builds the victim algorithm. It must use only reads,
	// writes and fences (no CAS) and be weak obstruction-free.
	Algorithm tso.Build
	// F is the adaptivity function the victim claims; the construction
	// uses it both to bound phase lengths and to issue non-adaptivity
	// certificates.
	F bounds.AdaptivityFunc
	// MaxInduction caps the number of induction steps (fences forced).
	// Defaults to N (the construction stops on its own well before).
	MaxInduction int
	// SoloBudget bounds the number of events granted to a single process
	// while it runs between special events; exceeding it is reported as a
	// weak obstruction-freedom failure. Defaults to 10000 + 200*N.
	SoloBudget int
	// Check selects invariant verification.
	Check CheckLevel
	// Trace, when non-nil, receives the final execution and one phase span
	// per construction phase after the run completes. The construction
	// cannot sink events live: erasure replaces the simulator wholesale, so
	// a live sink would double-count every replayed prefix.
	Trace *obsv.Tracer
}

// StopReason explains why the construction stopped.
type StopReason int

const (
	// StopActiveExhausted means no active processes remain.
	StopActiveExhausted StopReason = iota + 1
	// StopMaxInduction means the configured induction cap was reached.
	StopMaxInduction
	// StopNonAdaptive means the victim exceeded its claimed adaptivity
	// budget; Result.Certificate holds the evidence.
	StopNonAdaptive
	// StopViolation means the victim violated mutual exclusion.
	StopViolation
	// StopNotObstructionFree means a process exceeded the solo step budget
	// without reaching a special event.
	StopNotObstructionFree
)

// String returns a short description of the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopActiveExhausted:
		return "active set exhausted"
	case StopMaxInduction:
		return "induction cap reached"
	case StopNonAdaptive:
		return "non-adaptivity certificate"
	case StopViolation:
		return "exclusion violation"
	case StopNotObstructionFree:
		return "solo budget exceeded (not weak obstruction-free?)"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// NonAdaptiveCertificate is evidence that the victim is not f-adaptive: in
// an execution whose total contention is Contention, process Process
// executed CriticalEvents critical events during a single passage, exceeding
// Allowed = f(Contention).
type NonAdaptiveCertificate struct {
	Phase          string
	Contention     int
	Process        tso.ProcID
	CriticalEvents int
	Allowed        float64
}

// String renders the certificate.
func (c *NonAdaptiveCertificate) String() string {
	return fmt.Sprintf("%s phase: p%d executed %d critical events in a passage at total contention %d > f(%d)=%g",
		c.Phase, c.Process, c.CriticalEvents, c.Contention, c.Contention, c.Allowed)
}

// PhaseRecord summarizes one phase of one induction step.
type PhaseRecord struct {
	// Induction is the step index i (building H_{i+1} from H_i).
	Induction int
	// Phase is "read", "write", or "regularize".
	Phase string
	// Iterations is the number of inner iterations (the paper's s, t, m).
	Iterations int
	// ActiveBefore and ActiveAfter are |Act| at phase boundaries.
	ActiveBefore, ActiveAfter int
	// Erased counts processes erased during the phase.
	Erased int
	// EventsBefore and EventsAfter are the execution length at the phase
	// boundaries. Erasure can shrink the execution, so EventsAfter may be
	// smaller than EventsBefore.
	EventsBefore, EventsAfter int
}

// Result reports the outcome of a construction run.
type Result struct {
	// InductionSteps is the number of completed induction steps i: every
	// process still active after the run has completed i fences inside a
	// single passage, and i processes finished.
	InductionSteps int
	// FencesForced is the number of fences each surviving active process
	// was forced to execute (equals InductionSteps).
	FencesForced int
	// TotalContention is the contention of the witness execution (i+1).
	TotalContention int
	// Witness is an active process that completed FencesForced fences
	// mid-passage, or -1 if none survived.
	Witness tso.ProcID
	// WitnessCritical is the witness's critical-event count.
	WitnessCritical int
	// WitnessVerified reports that the Theorem 1 witness execution was
	// extracted by erasing every other active process and re-checked: the
	// witness completed FencesForced fences and exactly FencesForced+1
	// processes participate (total contention i+1).
	WitnessVerified bool
	// WitnessParticipants is the number of processes issuing events in the
	// extracted witness execution.
	WitnessParticipants int
	// ActiveRemaining is |Act| when the construction stopped.
	ActiveRemaining int
	// CriticalPerActive is l_i: critical events per active process.
	CriticalPerActive int
	// Stopped tells why the run ended.
	Stopped StopReason
	// Certificate is set when Stopped == StopNonAdaptive.
	Certificate *NonAdaptiveCertificate
	// Violation is set when Stopped == StopViolation.
	Violation *tso.Violation
	// Phases records every phase of every induction step.
	Phases []PhaseRecord
	// Events is the total number of events in the final execution.
	Events int
}

// Errors returned by Run.
var (
	// ErrUsesCAS is returned when the victim algorithm performs a CAS; the
	// operational construction supports read/write algorithms only (the
	// paper extends the result to comparison primitives by a separate
	// argument following [6,15]).
	ErrUsesCAS = errors.New("adversary: victim algorithm uses CAS; construction supports read/write algorithms only")
)

// Run executes the construction and returns its Result. The returned error
// is non-nil only for configuration or internal failures, or the context's
// error when ctx is cancelled between induction steps; algorithmic outcomes
// (certificates, violations) are reported in the Result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("adversary: need at least 2 processes, got %d", cfg.N)
	}
	if cfg.Algorithm == nil {
		return nil, errors.New("adversary: missing Algorithm")
	}
	if cfg.F == nil {
		cfg.F = bounds.Linear{C: 1}
	}
	if cfg.MaxInduction <= 0 {
		cfg.MaxInduction = cfg.N
	}
	if cfg.SoloBudget <= 0 {
		cfg.SoloBudget = 10000 + 200*cfg.N
	}
	if cfg.Model == 0 {
		cfg.Model = tso.CC
	}

	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	st.ctx = ctx
	// Erasure swaps the simulator, so kill the one the run ends with.
	defer func() { st.sim.Kill() }()
	res, err := st.run()
	if err == nil && cfg.Trace != nil {
		feedTrace(cfg.Trace, st, res)
	}
	return res, err
}

// feedTrace replays the final execution into the tracer and records one
// phase span per construction phase.
func feedTrace(tr *obsv.Tracer, st *state, res *Result) {
	tso.EmitExecution(st.sim.Execution(), tr)
	for _, ph := range res.Phases {
		tr.Phase(fmt.Sprintf("i%d %s", ph.Induction, ph.Phase),
			ph.EventsBefore, ph.EventsAfter, map[string]int{
				"iterations":    ph.Iterations,
				"active_before": ph.ActiveBefore,
				"active_after":  ph.ActiveAfter,
				"erased":        ph.Erased,
			})
	}
}
