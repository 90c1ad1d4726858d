package vmprog

import (
	"context"
	"errors"
	"testing"

	"priceadaptive/internal/tso"
)

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label must be rejected")
	}

	b = NewBuilder("nocs")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("program without CS must be rejected")
	}

	b = NewBuilder("nohalt")
	b.CS()
	if _, err := b.Build(); err == nil {
		t.Error("program without Halt must be rejected")
	}
}

func TestLockProgramsBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Program
		err  error
	}{} {
		_ = tc
	}
	if p, err := Peterson(true); err != nil || len(p.Code) == 0 {
		t.Errorf("Peterson: %v", err)
	}
	if p, err := TAS(); err != nil || len(p.Vars) != 1 {
		t.Errorf("TAS: %v", err)
	}
	if p, err := Bakery(3, false); err != nil || len(p.Vars) != 6 {
		t.Errorf("Bakery: %v", err)
	}
}

// runAdapted runs a VM program on the goroutine engine under a scheduler.
func runAdapted(t *testing.T, p *Program, cfg tso.Config, sched tso.Scheduler) *tso.Simulator {
	t.Helper()
	sim, err := tso.NewSimulator(cfg, Adapt(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Kill)
	res, err := tso.Run(sim, sched, 5_000_000)
	if err != nil {
		for i := 0; i < cfg.N; i++ {
			if msg, ok := sim.ProgramPanic(tso.ProcID(i)); ok {
				t.Fatalf("p%d panicked: %s", i, msg)
			}
		}
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	return sim
}

func TestVMPetersonOnGoroutineEngine(t *testing.T) {
	p := MustPeterson(true)
	for seed := int64(1); seed <= 10; seed++ {
		sim := runAdapted(t, p, tso.Config{N: 2}, tso.NewRandom(seed, 0.3))
		if v := sim.ExclusionViolation(); v != nil {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestVMBakeryOnGoroutineEngine(t *testing.T) {
	p := MustBakery(3, false)
	for seed := int64(1); seed <= 6; seed++ {
		sim := runAdapted(t, p, tso.Config{N: 3}, tso.NewRandom(seed, 0.3))
		if v := sim.ExclusionViolation(); v != nil {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestVMTASOnGoroutineEngine(t *testing.T) {
	p := MustTAS()
	sim := runAdapted(t, p, tso.Config{N: 4, Passages: 2}, tso.NewRoundRobin())
	if v := sim.ExclusionViolation(); v != nil {
		t.Fatal(v)
	}
}

// TestDifferentialEnginesAgree drives identical schedules through the
// goroutine engine and the fast engine and requires identical observable
// behaviour: final memory, per-process completion, buffer sizes, and the
// violation verdict.
func TestDifferentialEnginesAgree(t *testing.T) {
	programs := []*Program{
		MustPeterson(true),
		MustPeterson(false),
		MustTAS(),
		MustBakery(2, false),
		MustBakery(2, true),
	}
	for _, p := range programs {
		n := 2
		for seed := int64(1); seed <= 8; seed++ {
			// Record a schedule on the goroutine engine.
			sim, err := tso.NewSimulator(tso.Config{N: n}, Adapt(p))
			if err != nil {
				t.Fatal(err)
			}
			_, err = tso.Run(sim, tso.NewRandom(seed, 0.3), 200000)
			if err != nil && !errors.Is(err, tso.ErrStepBudget) {
				sim.Kill()
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			// A budget-exhausted run (e.g. a spin livelock of the broken
			// variant) still yields a schedule prefix to compare on.
			sched := append([]tso.Decision(nil), sim.Execution().Schedule...)

			// Replay on the fast engine.
			eng, err := NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				sim.Kill()
				t.Fatal(err)
			}
			st := eng.Initial()
			violatedFast := false
			for i, d := range sched {
				if err := eng.Apply(st, d); err != nil {
					sim.Kill()
					t.Fatalf("%s seed %d: fast engine rejected decision %d (%v): %v", p.Name, seed, i, d, err)
				}
				if eng.Violated(st) {
					violatedFast = true
				}
			}
			// Compare memory.
			for vi, name := range p.Vars {
				want := sim.Value(sim.Memory().Vars()[vi])
				if got := st.Mem[vi]; got != want {
					sim.Kill()
					t.Fatalf("%s seed %d: memory diverged at %s: fast=%d goroutine=%d", p.Name, seed, name, got, want)
				}
			}
			// Compare per-process progress.
			for id := 0; id < n; id++ {
				if st.Procs[id].Done != sim.Done(tso.ProcID(id)) {
					sim.Kill()
					t.Fatalf("%s seed %d: done status diverged for p%d", p.Name, seed, id)
				}
				if len(st.Procs[id].Buf) != sim.BufferSize(tso.ProcID(id)) {
					sim.Kill()
					t.Fatalf("%s seed %d: buffer size diverged for p%d: fast=%d goroutine=%d",
						p.Name, seed, id, len(st.Procs[id].Buf), sim.BufferSize(tso.ProcID(id)))
				}
			}
			violatedSlow := sim.ExclusionViolation() != nil
			if violatedFast != violatedSlow {
				sim.Kill()
				t.Fatalf("%s seed %d: violation verdicts diverged: fast=%v goroutine=%v",
					p.Name, seed, violatedFast, violatedSlow)
			}
			sim.Kill()
		}
	}
}

func TestFastCheckVerifiesPetersonCompletely(t *testing.T) {
	p := MustPeterson(true)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("fenced Peterson violated: schedule %v", res.Schedule)
	}
	if !res.Complete {
		t.Fatalf("state space not exhausted: %d states", res.States)
	}
	t.Logf("complete: %d states, %d transitions", res.States, res.Transitions)
}

func TestFastCheckFindsPetersonNoFenceViolation(t *testing.T) {
	p := MustPeterson(false)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatalf("fence-free Peterson must violate (states=%d complete=%v)", res.States, res.Complete)
	}
	// The violating schedule must replay on the GOROUTINE engine too: the
	// decisive cross-engine check.
	sim, err := tso.NewSimulator(tso.Config{N: 2}, Adapt(p))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	for _, d := range res.Schedule {
		var err error
		if d.Commit {
			_, err = sim.Commit(d.P)
		} else {
			_, err = sim.Step(d.P)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if sim.ExclusionViolation() == nil {
		t.Fatal("fast-engine schedule did not reproduce on the goroutine engine")
	}
}

// TestFastCheckBakeryTSOSafePSOUnsafe is the machine-checked TSO/PSO
// separation (experiment E9): the standard bakery (fenced doorway) is safe
// under every TSO schedule - the state space is finite and fully explored -
// but under PSO the doorway's number/choosing writes can become visible out
// of issue order BEFORE the fence drains them, and exclusion breaks.
func TestFastCheckBakeryTSOSafePSOUnsafe(t *testing.T) {
	p := MustBakery(2, false)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("bakery violated under TSO: %v", res.Schedule)
	}
	if !res.Complete {
		t.Fatalf("TSO state space not exhausted: %d states", res.States)
	}
	t.Logf("TSO: complete verification, %d states", res.States)

	engP, err := NewEngineOrdering(p, 2, tso.PSO)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := engP.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !resP.Violation {
		t.Fatalf("bakery must violate under PSO (states=%d complete=%v)", resP.States, resP.Complete)
	}
	hasOutOfOrder := false
	for _, d := range resP.Schedule {
		if d.Commit && d.VarPlus1 > 0 {
			hasOutOfOrder = true
		}
	}
	if !hasOutOfOrder {
		t.Errorf("PSO violation schedule has no out-of-order commit: %v", resP.Schedule)
	}
	t.Logf("PSO: violation after %d states, schedule %d decisions", resP.States, len(resP.Schedule))
}

// TestFastCheckWeakBakeryUnsafeEvenUnderTSO records a finding the fast
// engine produced: the bakery WITHOUT its ticket-publication fence is broken
// even under TSO. The informal argument "TSO commits the ticket before the
// choosing flag, so the doorway is still ordered" is wrong - the problem is
// not ordering but DELAY: a process can pass its whole wait loop while its
// ticket is still buffered and invisible, let a competitor draw an equal
// ticket, and lose the tie-break symmetrically. The bounded replay-based
// checker had missed this within budget; the fast engine's complete search
// found it, and the schedule replays on the goroutine engine.
func TestFastCheckWeakBakeryUnsafeEvenUnderTSO(t *testing.T) {
	p := MustBakery(2, true)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatalf("weak-doorway bakery must violate even under TSO (states=%d)", res.States)
	}
	// Cross-engine confirmation.
	sim, err := tso.NewSimulator(tso.Config{N: 2}, Adapt(p))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	for i, d := range res.Schedule {
		var err error
		if d.Commit {
			_, err = sim.Commit(d.P)
		} else {
			_, err = sim.Step(d.P)
		}
		if err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
	}
	if sim.ExclusionViolation() == nil {
		t.Fatal("TSO violation did not reproduce on the goroutine engine")
	}
	t.Logf("confirmed on both engines: %d-decision schedule", len(res.Schedule))
}

func TestEngineValidation(t *testing.T) {
	p := MustTAS()
	if _, err := NewEngineOrdering(p, 0, tso.TSO); err == nil {
		t.Error("n=0 must be rejected")
	}
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Initial()
	if err := eng.Step(st, 5); err == nil {
		t.Error("out-of-range process must be rejected")
	}
	if err := eng.Commit(st, 0, -1); err == nil {
		t.Error("commit with empty buffer must be rejected")
	}
	if _, err := eng.Check(context.Background(), ParallelOpts{Workers: -1}); err == nil {
		t.Error("a negative worker count must be rejected by Check")
	}
	if _, err := eng.CheckRecoverable(context.Background(), ParallelOpts{Workers: -1}, CrashOpts{MaxCrashes: 1}); err == nil {
		t.Error("a negative worker count must be rejected by CheckRecoverable")
	}
}

func TestStateCloneIndependence(t *testing.T) {
	p := MustPeterson(false)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Initial()
	if err := eng.Step(st, 0); err != nil { // Enter + park
		t.Fatal(err)
	}
	cl := st.Clone()
	if err := eng.Step(cl, 0); err != nil { // issue flag write into clone
		t.Fatal(err)
	}
	if len(st.Procs[0].Buf) != 0 {
		t.Error("clone mutation leaked into original buffer")
	}
	if len(cl.Procs[0].Buf) == 0 {
		t.Error("clone did not advance")
	}
}

func TestFastCheckDekker(t *testing.T) {
	// Fenced Dekker: complete TSO verification. Note turn is initially 0,
	// meaning p0 has priority in the contended backoff path.
	eng, err := NewEngineOrdering(MustDekker(true), 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("fenced Dekker violated: %v", res.Schedule)
	}
	if !res.Complete {
		t.Fatalf("incomplete: %d states", res.States)
	}
	t.Logf("fenced Dekker: complete, %d states", res.States)

	// Fence-free Dekker: TSO violation.
	engNF, err := NewEngineOrdering(MustDekker(false), 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	resNF, err := engNF.Check(context.Background(), ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !resNF.Violation {
		t.Fatalf("fence-free Dekker must violate under TSO (states=%d)", resNF.States)
	}
}

func TestVMDekkerOnGoroutineEngine(t *testing.T) {
	p := MustDekker(true)
	for seed := int64(1); seed <= 8; seed++ {
		sim := runAdapted(t, p, tso.Config{N: 2}, tso.NewRandom(seed, 0.3))
		if v := sim.ExclusionViolation(); v != nil {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestFastCheckBakeryThreeProcesses(t *testing.T) {
	// N=3 bakery: the state space grows but stays tractable for the fast
	// engine; exclusion must hold exhaustively.
	p := MustBakery(3, false)
	eng, err := NewEngineOrdering(p, 3, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{MaxStates: 6_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("N=3 bakery violated under TSO: %v", res.Schedule)
	}
	if !res.Complete {
		t.Logf("partial at %d states", res.States)
	} else {
		t.Logf("complete: %d states, %d transitions", res.States, res.Transitions)
	}
}

func TestLamportFastVerification(t *testing.T) {
	// N=2: complete TSO verification; the fast path makes the state space
	// small.
	eng, err := NewEngineOrdering(MustLamportFast(2), 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("Lamport fast mutex violated under TSO: %v", res.Schedule)
	}
	if !res.Complete {
		t.Errorf("incomplete: %d states", res.States)
	}
	t.Logf("N=2: complete, %d states", res.States)
}

func TestLamportFastOnGoroutineEngine(t *testing.T) {
	p := MustLamportFast(3)
	for seed := int64(1); seed <= 8; seed++ {
		sim := runAdapted(t, p, tso.Config{N: 3}, tso.NewRandom(seed, 0.3))
		if v := sim.ExclusionViolation(); v != nil {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestLamportFastSoloTakesFastPath(t *testing.T) {
	// A solo passage must not enter the slow path: count its events on the
	// goroutine engine (fast path = constant, small).
	p := MustLamportFast(8)
	sim, err := tso.NewSimulator(tso.Config{N: 8}, Adapt(p))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	for !sim.Done(0) {
		if _, err := sim.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	events := len(sim.Execution().Events)
	// Fast path: Enter, flag write+fence(3), x write+fence(3), y read,
	// y write+fence(3), x read, CS, exit writes+fence(4), Exit ~ 20.
	if events > 25 {
		t.Errorf("solo passage took %d events; fast path expected <= 25", events)
	}
}

func TestFastMinimize(t *testing.T) {
	p := MustPeterson(false)
	eng, err := NewEngineOrdering(p, 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(context.Background(), ParallelOpts{})
	if err != nil || !res.Violation {
		t.Fatalf("no violation: %v", err)
	}
	min, err := eng.Minimize(context.Background(), res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > len(res.Schedule) {
		t.Fatal("minimization grew the schedule")
	}
	// 1-minimality.
	reproduces := func(cand []tso.Decision) bool {
		st := eng.Initial()
		for _, d := range cand {
			if eng.Apply(st, d) != nil {
				return false
			}
			if eng.Violated(st) {
				return true
			}
		}
		return false
	}
	if !reproduces(min) {
		t.Fatal("minimized schedule does not reproduce")
	}
	for i := range min {
		cand := append(append([]tso.Decision{}, min[:i]...), min[i+1:]...)
		if reproduces(cand) {
			t.Fatalf("not 1-minimal at %d", i)
		}
	}
	if _, err := eng.Minimize(context.Background(), nil); err == nil {
		t.Error("non-violating schedule must be rejected")
	}
	t.Logf("minimized %d -> %d", len(res.Schedule), len(min))
}

func TestAllDoneAndFullRun(t *testing.T) {
	// Drive a full TAS run on the fast engine alone (no checker): both
	// processes must complete and AllDone must flip.
	eng, err := NewEngineOrdering(MustTAS(), 2, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Initial()
	if eng.AllDone(st) {
		t.Fatal("initial state cannot be done")
	}
	for guard := 0; !eng.AllDone(st); guard++ {
		if guard > 10000 {
			t.Fatalf("run did not converge; p0 pc=%d p1 pc=%d", st.Procs[0].PC, st.Procs[1].PC)
		}
		progressed := false
		for id := 0; id < 2; id++ {
			if st.Procs[id].Done {
				continue
			}
			if err := eng.Step(st, id); err != nil {
				t.Fatal(err)
			}
			progressed = true
		}
		if !progressed {
			t.Fatal("no runnable process")
		}
	}
	if st.Mem[0] != 0 {
		t.Errorf("lock not released: %d", st.Mem[0])
	}
}
