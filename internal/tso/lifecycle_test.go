package tso

import (
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
// and its CS, except p6, whose program panics at once.
func lifecycleBuild(sim *Simulator) (Program, error) {
	x := sim.Memory().NewVar("x")
	y := sim.Memory().NewVar("y")
	return func(p *Proc) {
		if p.ID() == 6 {
			panic("lifecycle")
		}
		p.Write(x, 1)
		p.Write(y, 2)
		p.Fence()
		p.Read(x)
		p.CS()
	}, nil
}

func TestHandoffLifecycleKillReleasesEveryState(t *testing.T) {
	base := settleGoroutines(0)
	s, err := NewSimulator(Config{N: 7, AllowConcurrentCS: true}, lifecycleBuild)
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
	// Parked: p1, p2 and p4.
	if got := settleGoroutines(base + 3); got != base+3 {
		t.Fatalf("before Kill: %d goroutines, want %d", got, base+3)
	}
	s.Kill()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after Kill: %d goroutines, want baseline %d", got, base)
	}
}

func TestHandoffLifecycleFailedReplay(t *testing.T) {
	base := settleGoroutines(0)
	// p1 writes y only if it sees p0's write to x, so erasing p0 makes
	// p1's recorded commit fail partway through the replay.
	var x, y *Var
	s, err := NewSimulator(Config{N: 2, AllowConcurrentCS: true}, func(sim *Simulator) (Program, error) {
		x = sim.Memory().NewVar("x")
		y = sim.Memory().NewVar("y")
		return func(p *Proc) {
			if p.ID() == 0 {
				p.Write(x, 1)
				p.Fence()
			} else if p.Read(x) == 1 {
				p.Write(y, 1)
			}
			p.CS()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	runToDone(t, s, 0)
	stepN(t, s, 1, 3) // Enter, Read x=1, WriteIssue y
	if _, err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 1, 1) // CS
	if _, err := s.Replay(map[ProcID]bool{0: true}); err == nil {
		t.Fatal("replay without p0 should fail at p1's commit")
	}
	s.Kill()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("after a failed replay and Kill: %d goroutines, want baseline %d", got, base)
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
		stepN(t, s, 0, 2) // Enter or Recover, then the first write
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
