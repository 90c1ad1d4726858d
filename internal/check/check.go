// Package check provides correctness tooling for algorithms running on the
// TSO simulator:
//
//   - Exhaustive: a bounded explicit-state model checker that enumerates
//     scheduling decisions (process steps and write-commit timings),
//     deduplicating states by their Mazurkiewicz trace (per-process event
//     projections plus shared-memory contents), and reports the first
//     exclusion violation with the schedule that produced it;
//   - Sweep: randomized schedule sweeps across seeds;
//   - CrashScheduler: failure injection that permanently stops scheduling a
//     victim process mid-passage, for demonstrating that lock-based
//     algorithms block under crashes.
package check

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"priceadaptive/internal/obsv"
	"priceadaptive/internal/tso"
)

// ExhaustiveReport summarizes a bounded exhaustive verification.
type ExhaustiveReport struct {
	// States is the number of distinct states visited.
	States int
	// Decisions is the number of scheduling decisions applied (including
	// replays during backtracking).
	Decisions int
	// Complete reports whether the exploration exhausted every reachable
	// state within the bounds (if false, the verification is partial).
	Complete bool
	// Violation is the first exclusion violation found, if any.
	Violation *tso.Violation
	// Schedule reproduces the violation when Violation is non-nil.
	Schedule []tso.Decision
}

// Exhaustive is a bounded explicit-state model checker over TSO schedules.
type Exhaustive struct {
	// MaxStates bounds the number of distinct states explored. Defaults to
	// 100000.
	MaxStates int
	// MaxDepth bounds the schedule length. Defaults to 10000.
	MaxDepth int
	// CollapseSpins folds runs of identical consecutive read events (same
	// variable, same value) into one when fingerprinting, making the state
	// space of spin-wait algorithms finite. This is sound for algorithms
	// whose local state does not depend on how many times a spin loop
	// iterated (true of every lock in this repository) but unsound for,
	// say, bounded-retry or backoff loops; it is therefore opt-in.
	CollapseSpins bool
	// MaxCrashes, when positive, additionally enumerates crash-stop
	// decisions: at every state each started, live process may crash
	// (dropping its write buffer and volatile state) as long as fewer than
	// MaxCrashes crashes occurred along the path. Recovery is an ordinary
	// Step of the crashed process. This verifies recoverable mutual
	// exclusion under a bounded number of crashes.
	MaxCrashes int
	// Trace, when non-nil, records one phase span per deepening iteration
	// (limit, states visited, pruned) on the decision timeline. Simulator
	// events are never traced from inside the checker: backtracking rebuilds
	// prefixes constantly, so a live sink would emit each event many times
	// over (Verify strips any cfg.Sink for the same reason).
	Trace *obsv.Tracer
}

// Verify explores schedules of the program built by build under cfg using
// iterative-deepening depth-first search with trace deduplication, so
// shallow violations are found before deep spin paths are chased. It stops
// at the first exclusion violation, when the state space is exhausted within
// MaxDepth, when the state budget is hit, or when ctx is cancelled or times
// out (in which case the context's error is returned).
func (e Exhaustive) Verify(ctx context.Context, cfg tso.Config, build tso.Build) (*ExhaustiveReport, error) {
	if e.MaxStates <= 0 {
		e.MaxStates = 100000
	}
	if e.MaxDepth <= 0 {
		e.MaxDepth = 10000
	}
	// The checker replays schedule prefixes on every backtrack; a live sink
	// would see each event once per rebuild, not once per execution.
	cfg.Sink = nil
	rep := &ExhaustiveReport{}
	total := 0
	// Deepen by 3/2 rather than doubling: DFS order changes drastically
	// with the limit, and a finer schedule catches violations that sit
	// just past one limit but get buried under an exploding subtree at the
	// next power of two.
	for limit := 16; ; limit = limit * 3 / 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if limit > e.MaxDepth {
			limit = e.MaxDepth
		}
		it := &iteration{ctx: ctx, cfg: cfg, build: build, rep: rep, limit: limit, maxStates: e.MaxStates, collapse: e.CollapseSpins, maxCrashes: e.MaxCrashes, seen: make(map[uint64]bool)}
		sim, err := tso.NewSimulator(cfg, build)
		if err != nil {
			return nil, err
		}
		decisionsBefore := rep.Decisions
		sim, err = it.dfs(sim, 0)
		if sim != nil {
			sim.Kill()
		}
		if err != nil {
			return nil, err
		}
		total += it.states
		rep.States = total
		if e.Trace != nil {
			pruned := 0
			if it.pruned {
				pruned = 1
			}
			e.Trace.Phase(fmt.Sprintf("iterate limit=%d", limit),
				decisionsBefore, rep.Decisions, map[string]int{
					"limit": limit, "states": it.states, "pruned": pruned,
				})
		}
		if rep.Violation != nil {
			rep.Complete = false
			return rep, nil
		}
		if !it.pruned && it.states <= it.maxStates {
			// Every path ended naturally within the depth limit and the
			// state budget: the reachable state space is fully explored.
			rep.Complete = true
			return rep, nil
		}
		// A saturated or depth-pruned iteration is NOT fatal: a deeper
		// limit follows different DFS paths and can reach shallow-state,
		// deep-schedule violations the saturated iteration missed.
		if limit >= e.MaxDepth {
			rep.Complete = false
			return rep, nil
		}
	}
}

// iteration is one depth-limited pass of the iterative-deepening search.
type iteration struct {
	ctx        context.Context // padvet:allow ctx-field one deepening pass, not a long-lived object
	cfg        tso.Config
	build      tso.Build
	rep        *ExhaustiveReport
	limit      int
	maxStates  int
	collapse   bool
	maxCrashes int
	seen       map[uint64]bool
	states     int
	pruned     bool
	// polls counts dfs entries so the context is polled every few hundred
	// nodes instead of on each one.
	polls int
}

func (it *iteration) dfs(sim *tso.Simulator, depth int) (*tso.Simulator, error) {
	if it.polls++; it.polls&0xff == 0 {
		if err := it.ctx.Err(); err != nil {
			return sim, err
		}
	}
	if v := sim.ExclusionViolation(); v != nil {
		it.rep.Violation = v
		it.rep.Schedule = append([]tso.Decision(nil), sim.Execution().Schedule...)
		return sim, nil
	}
	fp := fingerprint(sim, it.collapse)
	if it.seen[fp] {
		return sim, nil
	}
	it.seen[fp] = true
	it.states++
	if depth >= it.limit {
		// Prune this path (e.g. an unbounded spin loop) but keep
		// exploring siblings; a deeper iteration may revisit it.
		it.pruned = true
		return sim, nil
	}
	if it.states > it.maxStates {
		it.pruned = true
		return sim, nil
	}
	choices := enumerate(sim)
	if it.maxCrashes > 0 {
		choices = appendCrashChoices(choices, sim, it.maxCrashes)
	}
	base := len(sim.Execution().Schedule)
	for _, d := range choices {
		if _, err := sim.Apply(d); err != nil {
			return sim, fmt.Errorf("check: decision %v at depth %d: %w", d, depth, err)
		}
		it.rep.Decisions++
		var err error
		sim, err = it.dfs(sim, depth+1)
		if err != nil {
			return sim, err
		}
		if it.rep.Violation != nil || it.states > it.maxStates {
			return sim, nil
		}
		// Backtrack: rebuild the simulator at the schedule prefix.
		prefix := append([]tso.Decision(nil), sim.Execution().Schedule[:base]...)
		rebuilt, err := rebuild(it.cfg, it.build, prefix)
		if err != nil {
			return sim, err
		}
		sim.Kill()
		sim = rebuilt
	}
	return sim, nil
}

// rebuild re-applies a schedule prefix on a fresh simulator.
func rebuild(cfg tso.Config, build tso.Build, prefix []tso.Decision) (*tso.Simulator, error) {
	sim, err := tso.NewSimulator(cfg, build)
	if err != nil {
		return nil, err
	}
	for _, d := range prefix {
		if _, err := sim.Apply(d); err != nil {
			sim.Kill()
			return nil, fmt.Errorf("check: rebuild: %w", err)
		}
	}
	return sim, nil
}

// enumerate lists the scheduling decisions available in the current state:
// a Step for every non-done process, and a Commit for every process with a
// non-empty write buffer in read mode (in write mode Step already commits).
// Buffered writes of finished processes can still be committed.
func enumerate(sim *tso.Simulator) []tso.Decision {
	n := sim.Config().N
	out := make([]tso.Decision, 0, 2*n)
	for i := 0; i < n; i++ {
		p := tso.ProcID(i)
		if !sim.Done(p) {
			out = append(out, tso.Decision{P: p})
		}
		if sim.BufferSize(p) > 0 && sim.ModeOf(p) == tso.ModeRead {
			if sim.Config().Ordering == tso.PSO {
				// PSO: any buffered write may commit next.
				for _, v := range sim.BufferedVars(p) {
					out = append(out, tso.Decision{P: p, Commit: true, VarPlus1: v.Index() + 1})
				}
			} else {
				out = append(out, tso.Decision{P: p, Commit: true})
			}
		}
	}
	return out
}

// appendCrashChoices adds a crash decision for every started, live,
// not-currently-crashed process, as long as fewer than maxCrashes crash
// events occurred along the current path. The crash budget needs no extra
// fingerprint state: every EvCrash sits in its process's projection, so
// states differing in crashes used (or in crashed-ness, via EvRecover)
// never merge.
func appendCrashChoices(out []tso.Decision, sim *tso.Simulator, maxCrashes int) []tso.Decision {
	if sim.TotalCrashes() >= maxCrashes {
		return out
	}
	for i := 0; i < sim.Config().N; i++ {
		p := tso.ProcID(i)
		if sim.Started(p) && !sim.Done(p) && !sim.Crashed(p) {
			out = append(out, tso.Decision{P: p, Crash: true})
		}
	}
	return out
}

// fingerprint hashes the schedule-invariant state: shared-memory contents
// and each process's event projection (kind, variable, value). Two
// interleavings with equal fingerprints have identical futures for
// deterministic programs, so the DFS can merge them (Mazurkiewicz-trace
// deduplication).
func fingerprint(sim *tso.Simulator, collapseSpins bool) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	for _, v := range sim.Memory().Vars() {
		buf = strconv.AppendUint(buf[:0], sim.Value(v), 16)
		buf = append(buf, ',')
		h.Write(buf)
	}
	// Hash per-process projections (not the global interleaving): two
	// schedules with equal projections and memory are trace-equivalent.
	for i := 0; i < sim.Config().N; i++ {
		buf = append(buf[:0], '|')
		h.Write(buf)
		events := sim.Execution().ByProc(tso.ProcID(i))
		if collapseSpins {
			events = reduceProjection(events, 4)
		}
		for _, ev := range events {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(ev.Kind), 10)
			if ev.Var != nil {
				buf = append(buf, '@')
				buf = strconv.AppendInt(buf, int64(ev.Var.Index()), 10)
			}
			buf = append(buf, '=')
			buf = strconv.AppendUint(buf, ev.Val, 16)
			if ev.FromBuffer {
				buf = append(buf, 'b')
			}
			if ev.Kind == tso.EvCAS {
				if ev.CASOK {
					buf = append(buf, '+')
				} else {
					buf = append(buf, '-')
				}
			}
			buf = append(buf, ';')
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// ErrViolation is returned by Sweep when an exclusion violation is found.
var ErrViolation = errors.New("check: exclusion violated")

// Sweep runs the program under R random schedules (seeds 1..R) plus
// round-robin and sequential, returning ErrViolation (wrapped with the
// schedule detail) on the first violation. Cancelling ctx stops the sweep
// between schedules.
func Sweep(ctx context.Context, cfg tso.Config, build tso.Build, seeds int, budget int) error {
	scheds := []struct {
		name  string
		sched tso.Scheduler
	}{
		{"round-robin", tso.NewRoundRobin()},
		{"sequential", tso.Sequential{}},
	}
	for s := 1; s <= seeds; s++ {
		scheds = append(scheds, struct {
			name  string
			sched tso.Scheduler
		}{fmt.Sprintf("random(seed=%d)", s), tso.NewRandom(int64(s), 0.3)})
	}
	for _, sc := range scheds {
		if err := ctx.Err(); err != nil {
			return err
		}
		sim, err := tso.NewSimulator(cfg, build)
		if err != nil {
			return err
		}
		res, err := tso.Run(sim, sc.sched, budget)
		if res.Violation != nil {
			sim.Kill()
			return fmt.Errorf("%w under %s: %v", ErrViolation, sc.name, res.Violation)
		}
		if err != nil && !errors.Is(err, tso.ErrStepBudget) {
			sim.Kill()
			return fmt.Errorf("check: sweep under %s: %w", sc.name, err)
		}
		sim.Kill()
	}
	return nil
}

// CrashScheduler wraps a scheduler and permanently stops scheduling the
// victim process after it has been granted crashAfter decisions, modeling a
// crash mid-protocol. Lock-based algorithms block under crashes; the wrapped
// run is expected to exhaust its budget, which callers assert.
type CrashScheduler struct {
	Inner      tso.Scheduler
	Victim     tso.ProcID
	CrashAfter int
	granted    int
	skips      int
}

// Next implements tso.Scheduler.
func (c *CrashScheduler) Next(s *tso.Simulator) (tso.ProcID, bool, bool) {
	for {
		id, commit, ok := c.Inner.Next(s)
		if !ok {
			return 0, false, false
		}
		if id != c.Victim {
			c.skips = 0
			return id, commit, true
		}
		if c.granted < c.CrashAfter {
			c.granted++
			c.skips = 0
			return id, commit, true
		}
		// The victim is crashed: ask the inner scheduler again, giving up
		// if it keeps proposing only the victim.
		if c.skips++; c.skips > 4*s.Config().N {
			return 0, false, false
		}
	}
}

// reduceProjection collapses trailing repetitions of pure-read cycles with
// period up to maxPeriod: a spin loop rereading the same variables and
// observing the same values adds no information, so "spun once" and "spun
// five times" states merge. Only side-effect-free events (reads and failed
// CAS attempts) may be collapsed.
func reduceProjection(events []tso.Event, maxPeriod int) []tso.Event {
	out := make([]tso.Event, 0, len(events))
	for _, ev := range events {
		out = append(out, ev)
		for period := 1; period <= maxPeriod; period++ {
			if len(out) < 2*period {
				continue
			}
			tail := out[len(out)-period:]
			prev := out[len(out)-2*period : len(out)-period]
			if cycleEqualPure(tail, prev) {
				out = out[:len(out)-period]
				break
			}
		}
	}
	return out
}

// cycleEqualPure reports whether two event blocks are identical and consist
// only of side-effect-free events.
func cycleEqualPure(a, b []tso.Event) bool {
	for i := range a {
		if !pureEvent(a[i]) || !pureEvent(b[i]) {
			return false
		}
		if !sameObservation(a[i], b[i]) {
			return false
		}
	}
	return true
}

// pureEvent reports whether an event has no side effect on shared state: a
// read, or a failed CAS.
func pureEvent(e tso.Event) bool {
	if e.Kind == tso.EvRead {
		return true
	}
	return e.Kind == tso.EvCAS && !e.CASOK
}

// sameObservation reports whether two events are the same operation
// observing the same value.
func sameObservation(a, b tso.Event) bool {
	if a.Kind != b.Kind || a.FromBuffer != b.FromBuffer || a.Val != b.Val || a.Old != b.Old || a.CASOK != b.CASOK {
		return false
	}
	if a.Var == nil || b.Var == nil {
		return a.Var == b.Var
	}
	return a.Var.Index() == b.Var.Index()
}

// StallReport describes a run that stopped making progress: no passage
// completed within the observation window.
type StallReport struct {
	// Steps is the number of decisions applied before the stall was
	// declared.
	Steps int
	// Stalled lists each unfinished process with the operation it is
	// blocked on.
	Stalled []StalledProc
}

// StalledProc is one unfinished process in a StallReport.
type StalledProc struct {
	P       tso.ProcID
	Pending string
}

// String renders the stall report.
func (s *StallReport) String() string {
	out := fmt.Sprintf("no passage completed for %d decisions; stalled:", s.Steps)
	for _, sp := range s.Stalled {
		out += fmt.Sprintf(" p%d@%s", sp.P, sp.Pending)
	}
	return out
}

// DetectStall drives the simulator with sched and watches for liveness: if
// more than window decisions pass without any process completing a passage,
// it returns a StallReport naming the stuck processes and their pending
// operations (nil if every process finished). Use it to diagnose livelock
// and lost-wakeup bugs, which exclusion checking cannot see.
func DetectStall(sim *tso.Simulator, sched tso.Scheduler, window, budget int) (*StallReport, error) {
	lastProgress := 0
	finished := sim.NumFinished()
	for steps := 0; steps < budget; steps++ {
		done := true
		for i := 0; i < sim.Config().N; i++ {
			if !sim.Done(tso.ProcID(i)) {
				done = false
				break
			}
		}
		if done {
			return nil, nil
		}
		id, commit, ok := sched.Next(sim)
		if !ok {
			break
		}
		var err error
		if commit {
			_, err = sim.Commit(id)
		} else {
			_, err = sim.Step(id)
		}
		if err != nil {
			return nil, err
		}
		if f := sim.NumFinished(); f > finished {
			finished = f
			lastProgress = steps
		}
		if steps-lastProgress > window {
			rep := &StallReport{Steps: steps}
			for i := 0; i < sim.Config().N; i++ {
				p := tso.ProcID(i)
				if !sim.Done(p) {
					rep.Stalled = append(rep.Stalled, StalledProc{P: p, Pending: sim.PendingOp(p).String()})
				}
			}
			return rep, nil
		}
	}
	return nil, nil
}
