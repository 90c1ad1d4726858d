package tso

import (
	"errors"
	"fmt"
	"math/rand"
)

// Scheduler is a scheduling adversary: at each step it picks a process and
// decides whether to let it execute its next event or to commit the first
// write in its write buffer.
type Scheduler interface {
	// Next returns the next scheduling decision. ok=false stops the run.
	// The scheduler may inspect the simulator but must not drive it.
	Next(s *Simulator) (id ProcID, commit bool, ok bool)
}

// ErrStepBudget is returned by Run when the step budget is exhausted before
// all processes complete their passages.
var ErrStepBudget = errors.New("tso: step budget exhausted")

// RunResult summarizes a scheduler-driven run.
type RunResult struct {
	// Steps is the number of scheduling decisions applied.
	Steps int
	// Violation is the first exclusion violation detected, if any.
	Violation *Violation
	// Completed reports whether every process finished all its passages;
	// it is false when a program panicked (Simulator.Completed).
	Completed bool
}

// Run drives the simulator with sched until every process is done, the
// scheduler stops, or maxSteps decisions have been applied. It returns
// ErrStepBudget if the budget ran out first.
func Run(s *Simulator, sched Scheduler, maxSteps int) (RunResult, error) {
	res := RunResult{}
	for res.Steps < maxSteps {
		if s.allDone() {
			res.Completed = s.Completed()
			res.Violation = s.ExclusionViolation()
			return res, nil
		}
		id, commit, ok := sched.Next(s)
		if !ok {
			res.Violation = s.ExclusionViolation()
			return res, nil
		}
		var err error
		if commit {
			_, err = s.Commit(id)
		} else {
			_, err = s.Step(id)
		}
		if err != nil {
			return res, fmt.Errorf("step %d: %w", res.Steps, err)
		}
		res.Steps++
	}
	res.Violation = s.ExclusionViolation()
	return res, ErrStepBudget
}

func (s *Simulator) allDone() bool {
	for _, p := range s.procs {
		if !p.done {
			return false
		}
	}
	return true
}

// RoundRobin schedules processes cyclically, always letting the chosen
// process execute its next event (commits happen only inside fences). Writes
// therefore stay buffered as long as possible - the maximally weak TSO
// behaviour.
type RoundRobin struct {
	next ProcID
}

// NewRoundRobin returns a round-robin scheduler starting at process 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Next implements Scheduler.
func (r *RoundRobin) Next(s *Simulator) (ProcID, bool, bool) {
	n := ProcID(s.Config().N)
	for i := ProcID(0); i < n; i++ {
		id := (r.next + i) % n
		if !s.Done(id) {
			r.next = (id + 1) % n
			return id, false, true
		}
	}
	return 0, false, false
}

// Random schedules uniformly random runnable processes. With probability
// CommitProb it commits a buffered write of the chosen process instead of
// letting it execute; higher values approximate stronger memory models,
// lower values stress TSO reordering.
type Random struct {
	rng        *rand.Rand
	CommitProb float64
}

// NewRandom returns a seeded random scheduler. commitProb is clamped to
// [0,1].
func NewRandom(seed int64, commitProb float64) *Random {
	if commitProb < 0 {
		commitProb = 0
	}
	if commitProb > 1 {
		commitProb = 1
	}
	return &Random{rng: rand.New(rand.NewSource(seed)), CommitProb: commitProb}
}

// Next implements Scheduler.
func (r *Random) Next(s *Simulator) (ProcID, bool, bool) {
	n := s.Config().N
	runnable := make([]ProcID, 0, n)
	for i := 0; i < n; i++ {
		if !s.Done(ProcID(i)) {
			runnable = append(runnable, ProcID(i))
		}
	}
	if len(runnable) == 0 {
		return 0, false, false
	}
	id := runnable[r.rng.Intn(len(runnable))]
	if r.CommitProb > 0 && s.BufferSize(id) > 0 && r.rng.Float64() < r.CommitProb {
		return id, true, true
	}
	return id, false, true
}

// RandomPSO is a Random scheduler that additionally exploits PSO's freedom
// to commit buffered writes out of issue order: commit decisions pick a
// uniformly random buffered variable. It drives the simulator itself via
// RunPSO because the Scheduler interface's decisions cannot carry a variable
// choice.
type RandomPSO struct {
	rng        *rand.Rand
	commitProb float64
}

// NewRandomPSO returns a seeded PSO-aware random scheduler.
func NewRandomPSO(seed int64, commitProb float64) *RandomPSO {
	if commitProb < 0 {
		commitProb = 0
	}
	if commitProb > 1 {
		commitProb = 1
	}
	return &RandomPSO{rng: rand.New(rand.NewSource(seed)), commitProb: commitProb}
}

// Run drives the simulator until all processes are done or maxSteps
// decisions were applied.
func (r *RandomPSO) Run(s *Simulator, maxSteps int) (RunResult, error) {
	res := RunResult{}
	for res.Steps < maxSteps {
		if s.allDone() {
			res.Completed = s.Completed()
			res.Violation = s.ExclusionViolation()
			return res, nil
		}
		n := s.Config().N
		runnable := make([]ProcID, 0, n)
		for i := 0; i < n; i++ {
			if !s.Done(ProcID(i)) {
				runnable = append(runnable, ProcID(i))
			}
		}
		id := runnable[r.rng.Intn(len(runnable))]
		var err error
		if bufd := s.BufferedVars(id); len(bufd) > 0 && s.ModeOf(id) == ModeRead && r.rng.Float64() < r.commitProb {
			_, err = s.CommitVar(id, bufd[r.rng.Intn(len(bufd))])
		} else {
			_, err = s.Step(id)
		}
		if err != nil {
			return res, fmt.Errorf("pso step %d: %w", res.Steps, err)
		}
		res.Steps++
	}
	res.Violation = s.ExclusionViolation()
	return res, ErrStepBudget
}

// Sequential runs each process to completion before starting the next,
// giving a fully serialized (contention-free) execution. Useful for
// measuring solo passage costs and for sanity checks.
type Sequential struct{}

// Next implements Scheduler.
func (Sequential) Next(s *Simulator) (ProcID, bool, bool) {
	for i := 0; i < s.Config().N; i++ {
		if !s.Done(ProcID(i)) {
			return ProcID(i), false, true
		}
	}
	return 0, false, false
}
