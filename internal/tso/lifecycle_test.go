package tso

import (
	"errors"
	"runtime"
	"testing"
)

// settleGoroutines yields until at most want goroutines remain, or until a
// bound on the yields runs out, and returns the count it last saw. Exiting
// goroutines finish after Kill's WaitGroup releases it, so the count is
// polled rather than read once. settleGoroutines(0) spends the whole bound,
// which lets goroutines of earlier tests that are still exiting finish
// before a test takes its baseline.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// lifecycleBuild gives every process two buffered writes, a fence, a read
// and its CS, except that p6's program panics at once, p10's panics after
// its writes, and p9's calls CS a second time, a program error.
func lifecycleBuild(sim *Simulator) (Program, error) {
	x := sim.Memory().NewVar("x")
	y := sim.Memory().NewVar("y")
	return func(p *Proc) {
		if p.ID() == 6 {
			panic("lifecycle")
		}
		p.Write(x, 1)
		p.Write(y, 2)
		if p.ID() == 10 {
			panic("lifecycle mid-run")
		}
		p.Fence()
		p.Read(x)
		p.CS()
		if p.ID() == 9 {
			p.CS()
		}
	}, nil
}

// notFence holds until the process is about to begin a fence.
func notFence(s *Simulator, id ProcID) bool { return s.PendingOp(id).Kind != OpBeginFence }

func TestHandoffLifecycleKillReleasesEveryState(t *testing.T) {
	base := settleGoroutines(0)
	s, err := NewSimulator(Config{N: 11, AllowConcurrentCS: true}, lifecycleBuild)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	// p0 never starts.
	stepN(t, s, 1, 2) // p1: parked mid-passage, before its second write
	stepN(t, s, 2, 5) // p2: mid-fence, one of two writes committed
	if s.ModeOf(2) != ModeWrite || s.BufferSize(2) != 1 {
		t.Fatalf("p2 mode %s buffer %d, want write mode with one buffered write", s.ModeOf(2), s.BufferSize(2))
	}
	stepN(t, s, 3, 2) // p3: crashed, awaiting Recover
	if _, err := s.Crash(3); err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 4, 2) // p4: crashed, then recovered and parked
	if _, err := s.Crash(4); err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 4, 2)
	runToDone(t, s, 5) // p5: finished
	stepN(t, s, 6, 1)  // p6: panicked
	if _, ok := s.ProgramPanic(6); !ok || !s.Done(6) {
		t.Fatal("p6 should have panicked and be done")
	}
	// The states a run leaves. p7: stopped by its condition, parked before
	// its fence.
	if n, err := s.StepWhile(7, 100, notFence); err != nil || n != 3 || s.PendingOp(7).Kind != OpBeginFence {
		t.Fatalf("p7 ran %d events (err %v), pending %s; want 3, pending BeginFence", n, err, s.PendingOp(7))
	}
	// p8: finished within one run (Enter, 2 writes, BeginFence, 2 commits,
	// EndFence, Read, CS, Exit).
	if n, err := s.StepWhile(8, 100, nil); err != nil || n != 10 || !s.Done(8) {
		t.Fatalf("p8 ran %d events (err %v), done %t; want 10 and done", n, err, s.Done(8))
	}
	// p9: a program error in the middle of a run leaves its second CS
	// pending and recorded nowhere.
	events := len(s.Execution().Events)
	var perr *ProgramError
	if n, err := s.StepWhile(9, 100, nil); !errors.As(err, &perr) || n != 9 || s.PendingOp(9).Kind != OpCS {
		t.Fatalf("p9 ran %d events (err %v), pending %s; want 9, a program error and CS pending", n, err, s.PendingOp(9))
	}
	if got := len(s.Execution().Events); got != events+9 || len(s.Execution().Schedule) != got {
		t.Fatalf("p9's run recorded %d events and %d decisions, want %d of each", got-events, len(s.Execution().Schedule)-events, 9)
	}
	// p10: its program panicked in the middle of a run.
	if n, err := s.StepWhile(10, 100, nil); err != nil || n != 3 || !s.Done(10) {
		t.Fatalf("p10 ran %d events (err %v), done %t; want 3 and done", n, err, s.Done(10))
	}
	if msg, ok := s.ProgramPanic(10); !ok || msg != "lifecycle mid-run" {
		t.Fatalf("p10 panic = %q, %t; want the program's", msg, ok)
	}
	// Parked: p1, p2, p4, p7 and p9.
	if got := settleGoroutines(base + 5); got != base+5 {
		t.Fatalf("before Kill: %d goroutines, want %d", got, base+5)
	}
	s.Kill()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after Kill: %d goroutines, want baseline %d", got, base)
	}
}

func TestHandoffLifecycleFailedReplay(t *testing.T) {
	// p1's program depends on whether it sees p0's write to x, so a replay
	// that erases p0 diverges and fails partway through.
	for _, tc := range []struct {
		name string
		// p1 runs seen after reading x=1 and unseen after reading x=0.
		seen, unseen func(p *Proc, y *Var)
		// drive steps p1 after p0 has finished.
		drive func(t *testing.T, s *Simulator)
		want  string
	}{{
		// p1 writes y only if it saw x=1, so its recorded commit finds an
		// empty buffer.
		name:   "commit",
		seen:   func(p *Proc, y *Var) { p.Write(y, 1) },
		unseen: func(p *Proc, y *Var) {},
		drive: func(t *testing.T, s *Simulator) {
			stepN(t, s, 1, 3) // Enter, Read x=1, WriteIssue y
			if _, err := s.Commit(1); err != nil {
				t.Fatal(err)
			}
			stepN(t, s, 1, 1) // CS
		},
		want: "tso: replay decision 10 (p1): tso: write buffer is empty",
	}, {
		// p1 recorded one run of six steps; without x=1 it reaches a
		// second CS, a program error, at the run's fourth step.
		name: "mid-run",
		seen: func(p *Proc, y *Var) {
			p.Read(y)
			p.Read(y)
		},
		unseen: func(p *Proc, y *Var) { p.CS() },
		drive: func(t *testing.T, s *Simulator) {
			if n, err := s.StepWhile(1, 6, nil); err != nil || n != 6 {
				t.Fatalf("p1 ran %d events (err %v), want 6", n, err)
			}
		},
		want: "tso: replay decision 10 (p1): tso: program error on p1: CS outside entry section",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			base := settleGoroutines(0)
			s, err := NewSimulator(Config{N: 2, AllowConcurrentCS: true}, func(sim *Simulator) (Program, error) {
				x := sim.Memory().NewVar("x")
				y := sim.Memory().NewVar("y")
				return func(p *Proc) {
					if p.ID() == 0 {
						p.Write(x, 1)
						p.Fence()
					} else if p.Read(x) == 1 {
						tc.seen(p, y)
					} else {
						tc.unseen(p, y)
					}
					p.CS()
				}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Kill()
			runToDone(t, s, 0) // 7 decisions
			tc.drive(t, s)
			if _, err := s.Replay(map[ProcID]bool{0: true}); err == nil || err.Error() != tc.want {
				t.Fatalf("replay without p0: %v, want %q", err, tc.want)
			}
			s.Kill()
			if got := settleGoroutines(base); got != base {
				t.Fatalf("after a failed replay and Kill: %d goroutines, want baseline %d", got, base)
			}
		})
	}
}

func TestHandoffLifecycleCrashRecoverCycles(t *testing.T) {
	base := settleGoroutines(0)
	s, err := NewSimulator(Config{N: 1}, lifecycleBuild)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			stepN(t, s, 0, 2) // Enter or Recover, then the first write
		} else if n, err := s.StepWhile(0, 3, nil); err != nil || n != 3 {
			// Recover and both writes, in one run.
			t.Fatalf("run %d: %d events (err %v), want 3", i, n, err)
		}
		if _, err := s.Crash(0); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
	}
	if s.Crashes(0) != 100 {
		t.Fatalf("crashes = %d, want 100", s.Crashes(0))
	}
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after 100 crashes: %d goroutines, want baseline %d", got, base)
	}
	runToDone(t, s, 0)
	s.Kill()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after Kill: %d goroutines, want baseline %d", got, base)
	}
}

func TestHandoffLifecycleSimulatorPanicReraised(t *testing.T) {
	base := settleGoroutines(0)
	s, err := NewSimulator(Config{N: 1}, lifecycleBuild)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	// A condition is simulator code on the program goroutine: its panic
	// must reach StepWhile's caller, as it would from a Step, and must not
	// pass for the program's.
	calls := 0
	boom := func(*Simulator, ProcID) bool {
		if calls++; calls == 3 {
			panic("condition")
		}
		return true
	}
	func() {
		defer func() {
			if r := recover(); r != "condition" {
				t.Fatalf("StepWhile raised %v, want the condition's panic", r)
			}
		}()
		s.StepWhile(0, 100, boom)
		t.Fatal("StepWhile returned; want a panic")
	}()
	if msg, ok := s.ProgramPanic(0); ok {
		t.Fatalf("the condition's panic was reported as the program's: %q", msg)
	}
	if got := len(s.Execution().Events); got != 3 {
		t.Fatalf("%d events recorded, want 3 (Enter and two writes)", got)
	}
	s.Kill()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after Kill: %d goroutines, want baseline %d", got, base)
	}
}
