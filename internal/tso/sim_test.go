package tso

import (
	"errors"
	"testing"
)

// buildNoop returns a program that enters the CS immediately.
func buildNoop(sim *Simulator) (Program, error) {
	return func(p *Proc) { p.CS() }, nil
}

// mustSim builds a simulator or fails the test.
func mustSim(t *testing.T, cfg Config, build Build) *Simulator {
	t.Helper()
	s, err := NewSimulator(cfg, build)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	t.Cleanup(s.Kill)
	return s
}

// stepN applies n Step decisions to process id, failing on error.
func stepN(t *testing.T, s *Simulator, id ProcID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Step(id); err != nil {
			t.Fatalf("Step(%d) #%d: %v", id, i, err)
		}
	}
}

// runToDone steps process id until it is done.
func runToDone(t *testing.T, s *Simulator, id ProcID) {
	t.Helper()
	for i := 0; !s.Done(id); i++ {
		if i > 100000 {
			t.Fatalf("p%d did not finish (pending %s)", id, s.PendingOp(id))
		}
		if _, err := s.Step(id); err != nil {
			t.Fatalf("Step(%d): %v", id, err)
		}
	}
}

func TestSimulatorConfigValidation(t *testing.T) {
	if _, err := NewSimulator(Config{N: 0}, buildNoop); err == nil {
		t.Fatal("want error for N=0")
	}
	if _, err := NewSimulator(Config{N: 1}, func(*Simulator) (Program, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("want error for nil program")
	}
	if _, err := NewSimulator(Config{N: 1}, func(*Simulator) (Program, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("want build error propagated")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := mustSim(t, Config{N: 2}, buildNoop)
	if got := s.Config().Passages; got != 1 {
		t.Errorf("default Passages = %d, want 1", got)
	}
	if got := s.Config().Model; got != CC {
		t.Errorf("default Model = %v, want CC", got)
	}
}

func TestSimplePassageEventSequence(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, 7)
			p.Fence()
			p.CS()
			if got := p.Read(v); got != 7 {
				t.Errorf("read after fence = %d, want 7", got)
			}
		}, nil
	})
	runToDone(t, s, 0)
	kinds := make([]EventKind, 0)
	for _, e := range s.Execution().Events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EvEnter, EvWriteIssue, EvBeginFence, EvWriteCommit, EvEndFence, EvCS, EvRead, EvExit}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	if s.Value(v) != 7 {
		t.Errorf("final value = %d, want 7", s.Value(v))
	}
	if s.FencesCompleted(0) != 1 {
		t.Errorf("fences = %d, want 1", s.FencesCompleted(0))
	}
}

func TestWriteIsInvisibleUntilCommitted(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 2}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			if p.ID() == 0 {
				p.Write(v, 1)
				p.Read(v) // from own buffer
			} else {
				p.Read(v) // from memory: must see 0
			}
			p.CS()
		}, nil
	})
	// p0: Enter, WriteIssue, Read(buffer).
	stepN(t, s, 0, 3)
	// p1: Enter, Read.
	stepN(t, s, 1, 2)

	evs := s.Execution().Events
	// p0's read must come from the buffer with the new value.
	r0 := evs[2]
	if r0.Kind != EvRead || !r0.FromBuffer || r0.Val != 1 {
		t.Errorf("p0 read = %v, want buffered read of 1", r0)
	}
	if r0.Access {
		t.Error("buffer read must not be a variable access")
	}
	// p1's read must see the initial value.
	r1 := evs[4]
	if r1.Kind != EvRead || r1.FromBuffer || r1.Val != 0 {
		t.Errorf("p1 read = %v, want memory read of 0", r1)
	}
	// Now commit p0's write explicitly (read-mode commit).
	if _, err := s.Commit(0); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s.Value(v) != 1 {
		t.Errorf("value after commit = %d, want 1", s.Value(v))
	}
}

func TestBufferCoalescingKeepsOnePendingWritePerVar(t *testing.T) {
	var v, w *Var
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("v")
		w = sim.Memory().NewVar("w")
		return func(p *Proc) {
			p.Write(v, 1)
			p.Write(w, 2)
			p.Write(v, 3) // replaces the older write to v, in place
			p.Fence()
			p.CS()
		}, nil
	})
	// Enter + 3 write issues.
	stepN(t, s, 0, 4)
	if got := s.BufferSize(0); got != 2 {
		t.Fatalf("buffer size = %d, want 2 (coalesced)", got)
	}
	if x, ok := s.BufferLookup(0, v); !ok || x != 3 {
		t.Fatalf("buffered write to v = %d,%v, want 3,true", x, ok)
	}
	// BeginFence, then commits in issue order: v first (in place), then w.
	stepN(t, s, 0, 2)
	last := s.Execution().Events[len(s.Execution().Events)-1]
	if last.Kind != EvWriteCommit || last.Var != v || last.Val != 3 {
		t.Fatalf("first commit = %v, want commit v=3", last)
	}
	stepN(t, s, 0, 1)
	last = s.Execution().Events[len(s.Execution().Events)-1]
	if last.Kind != EvWriteCommit || last.Var != w || last.Val != 2 {
		t.Fatalf("second commit = %v, want commit w=2", last)
	}
}

func TestFenceDrainsBufferInOrder(t *testing.T) {
	var vs []*Var
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		vs = sim.Memory().NewArray("a", 4)
		return func(p *Proc) {
			for i, v := range vs {
				p.Write(v, uint64(i+10))
			}
			p.Fence()
			p.CS()
		}, nil
	})
	runToDone(t, s, 0)
	var commits []Event
	for _, e := range s.Execution().Events {
		if e.Kind == EvWriteCommit {
			commits = append(commits, e)
		}
	}
	if len(commits) != 4 {
		t.Fatalf("commits = %d, want 4", len(commits))
	}
	for i, c := range commits {
		if c.Var != vs[i] || c.Val != uint64(i+10) {
			t.Errorf("commit %d = %v, want %s=%d", i, c, vs[i], i+10)
		}
	}
	// During the fence, mode must have been write.
	if s.ModeOf(0) != ModeRead {
		t.Errorf("mode after fence = %v, want read", s.ModeOf(0))
	}
}

func TestPendingOpDuringFenceIsCommit(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, 9)
			p.Fence()
			p.CS()
		}, nil
	})
	// Enter, WriteIssue, BeginFence.
	stepN(t, s, 0, 3)
	if s.ModeOf(0) != ModeWrite {
		t.Fatalf("mode = %v, want write", s.ModeOf(0))
	}
	op := s.PendingOp(0)
	if op.Kind != OpCommit || op.Var != v || op.Val != 9 {
		t.Fatalf("pending during fence = %v, want Commit x=9", op)
	}
	// The commit is critical (first write to v).
	if !s.PendingCritical(0) {
		t.Error("pending commit should be critical")
	}
	stepN(t, s, 0, 1) // commit
	op = s.PendingOp(0)
	if op.Kind != OpEndFence {
		t.Fatalf("pending after drain = %v, want EndFence", op)
	}
}

func TestCriticalReadFirstRemoteReadOnly(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Read(v)
			p.Read(v)
			p.CS()
		}, nil
	})
	runToDone(t, s, 0)
	evs := s.Execution().Events
	if !evs[1].Critical {
		t.Error("first remote read must be critical")
	}
	if evs[2].Critical {
		t.Error("second remote read must not be critical")
	}
}

func TestLocalReadNotCriticalInDSM(t *testing.T) {
	var local, remote *Var
	s := mustSim(t, Config{N: 2, Model: DSM}, func(sim *Simulator) (Program, error) {
		local = sim.Memory().NewOwned("mine", 0)
		remote = sim.Memory().NewOwned("theirs", 1)
		return func(p *Proc) {
			if p.ID() == 0 {
				p.Read(local)
				p.Read(remote)
			}
			p.CS()
		}, nil
	})
	stepN(t, s, 0, 3)
	evs := s.Execution().Events
	if evs[1].Remote || evs[1].Critical {
		t.Errorf("read of owned var = %v, want local non-critical", evs[1])
	}
	if !evs[2].Remote || !evs[2].Critical {
		t.Errorf("read of other's var = %v, want remote critical", evs[2])
	}
}

func TestCCModelAllVarsRemote(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 1, Model: CC}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewOwned("spin", 0) // owner hint ignored in CC
		return func(p *Proc) { p.Read(v); p.CS() }, nil
	})
	if v.Owner() != NoOwner {
		t.Fatalf("owner in CC = %v, want NoOwner", v.Owner())
	}
	stepN(t, s, 0, 2)
	if e := s.Execution().Events[1]; !e.Remote {
		t.Errorf("CC read = %v, want remote", e)
	}
}

func TestCriticalWriteRules(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 2}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, uint64(p.ID())+1)
			p.Fence()
			p.Write(v, uint64(p.ID())+100)
			p.Fence()
			p.CS()
		}, nil
	})
	// p0: Enter, issue, begin, commit (critical: first), end.
	stepN(t, s, 0, 5)
	// p0 again: issue, begin, commit (non-critical: p0 is last writer), end.
	stepN(t, s, 0, 4)
	var commits []Event
	for _, e := range s.Execution().Events {
		if e.Kind == EvWriteCommit {
			commits = append(commits, e)
		}
	}
	if len(commits) != 2 {
		t.Fatalf("commits = %d, want 2", len(commits))
	}
	if !commits[0].Critical {
		t.Error("first commit to v must be critical")
	}
	if commits[1].Critical {
		t.Error("overwrite of own value must not be critical")
	}
	// Now p1 overwrites p0's value: critical.
	stepN(t, s, 1, 4)
	evs := s.Execution().Events
	lastCommit := evs[len(evs)-1]
	if lastCommit.Kind != EvWriteCommit || lastCommit.P != 1 || !lastCommit.Critical {
		t.Errorf("p1 commit = %v, want critical commit", lastCommit)
	}
}

func TestAwarenessDirectAndTransitive(t *testing.T) {
	var a, b *Var
	s := mustSim(t, Config{N: 3}, func(sim *Simulator) (Program, error) {
		a = sim.Memory().NewVar("a")
		b = sim.Memory().NewVar("b")
		return func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Write(a, 1)
				p.Fence()
			case 1:
				p.Read(a)
				p.Write(b, 2)
				p.Fence()
			case 2:
				p.Read(b)
			}
			p.CS()
		}, nil
	})
	// p0 commits a=1.
	stepN(t, s, 0, 5)
	// p1 reads a (becomes aware of p0), then commits b=2.
	stepN(t, s, 1, 6)
	if !s.AwareOf(1, 0) {
		t.Fatal("p1 must be aware of p0 after reading a")
	}
	// p2 reads b: by Definition 1 case 2 it becomes aware of p1 and,
	// transitively, of p0 (p1 was aware of p0 when it issued its write).
	stepN(t, s, 2, 2)
	if !s.AwareOf(2, 1) {
		t.Error("p2 must be aware of p1")
	}
	if !s.AwareOf(2, 0) {
		t.Error("p2 must be transitively aware of p0")
	}
	if s.AwareOf(0, 1) || s.AwareOf(0, 2) {
		t.Error("p0 must not be aware of anyone else")
	}
	if s.AwareOf(0, NoOwner) || s.AwareOf(0, 64) {
		t.Error("IDs outside 0..N-1 are in no awareness set")
	}
}

func TestAwarenessSnapshotAtIssueTime(t *testing.T) {
	// p0 issues a write to b while unaware of p1, then becomes aware of p1
	// before committing. The committed write must carry the issue-time
	// awareness set (without p1), per Definition 1.
	var a, b *Var
	s := mustSim(t, Config{N: 3}, func(sim *Simulator) (Program, error) {
		a = sim.Memory().NewVar("a")
		b = sim.Memory().NewVar("b")
		return func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Write(b, 1) // issued while unaware of p1
				p.Read(a)     // becomes aware of p1
				p.Fence()     // commits b
			case 1:
				p.Write(a, 1)
				p.Fence()
			case 2:
				p.Read(b)
			}
			p.CS()
		}, nil
	})
	// p1 commits a=1 first.
	stepN(t, s, 1, 5)
	// p0 issues b, reads a (aware of p1 now), fences (commits b).
	stepN(t, s, 0, 6)
	if !s.AwareOf(0, 1) {
		t.Fatal("p0 must be aware of p1")
	}
	// p2 reads b: becomes aware of p0 but NOT of p1.
	stepN(t, s, 2, 2)
	if !s.AwareOf(2, 0) {
		t.Error("p2 must be aware of p0")
	}
	if s.AwareOf(2, 1) {
		t.Error("p2 must not be aware of p1: p0 issued its write to b before learning of p1")
	}
}

func TestBufferReadDoesNotCreateAwareness(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 2}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			if p.ID() == 0 {
				p.Write(v, 5)
				p.Fence()
			} else {
				p.Write(v, 6) // buffered
				p.Read(v)     // served from own buffer: no awareness of p0
			}
			p.CS()
		}, nil
	})
	stepN(t, s, 0, 5) // p0 commits v=5
	stepN(t, s, 1, 3) // p1 issues v=6, reads own buffer
	if s.AwareOf(1, 0) {
		t.Error("buffer read must not make p1 aware of p0")
	}
}

func TestCASSemanticsAndSerialization(t *testing.T) {
	var v, w *Var
	s := mustSim(t, Config{N: 2}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("lock")
		w = sim.Memory().NewVar("side")
		return func(p *Proc) {
			p.Write(w, uint64(p.ID())+1) // buffered write that CAS must drain
			old, ok := p.CAS(v, 0, uint64(p.ID())+1)
			_ = old
			_ = ok
			p.CS()
		}, nil
	})
	// p0: Enter, WriteIssue. CAS pending with non-empty buffer => commit.
	stepN(t, s, 0, 2)
	if op := s.PendingOp(0); op.Kind != OpCommit || op.Var != w {
		t.Fatalf("pending before CAS = %v, want commit of side", op)
	}
	stepN(t, s, 0, 1) // drains w
	if op := s.PendingOp(0); op.Kind != OpCAS {
		t.Fatalf("pending = %v, want CAS", op)
	}
	stepN(t, s, 0, 1) // CAS succeeds
	if s.Value(v) != 1 {
		t.Fatalf("lock = %d, want 1", s.Value(v))
	}
	evs := s.Execution().Events
	cas := evs[len(evs)-1]
	if cas.Kind != EvCAS || !cas.CASOK || !cas.Fence || !cas.Critical {
		t.Fatalf("CAS event = %+v, want successful, fence-costed, critical", cas)
	}
	// p1's CAS must fail and report the current value.
	stepN(t, s, 1, 4)
	evs = s.Execution().Events
	cas = evs[len(evs)-1]
	if cas.Kind != EvCAS || cas.CASOK {
		t.Fatalf("p1 CAS = %+v, want failed", cas)
	}
	if s.Value(v) != 1 {
		t.Errorf("lock after failed CAS = %d, want 1", s.Value(v))
	}
	// Failed CAS still creates awareness of the last writer.
	if !s.AwareOf(1, 0) {
		t.Error("p1 must be aware of p0 after reading lock via CAS")
	}
}

func TestMultiplePassages(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 2, Passages: 3}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("c")
		return func(p *Proc) {
			x := p.Read(v)
			p.CS()
			p.Write(v, x+1)
			p.Fence()
		}, nil
	})
	runToDone(t, s, 0)
	runToDone(t, s, 1)
	if got := s.Value(v); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	st := s.Stats(0)
	if len(st) != 3 {
		t.Fatalf("passages recorded = %d, want 3", len(st))
	}
	for i, ps := range st {
		if !ps.Complete {
			t.Errorf("passage %d not complete", i)
		}
		if ps.Fences != 1 {
			t.Errorf("passage %d fences = %d, want 1", i, ps.Fences)
		}
	}
}

func TestActiveAndFinishedSets(t *testing.T) {
	s := mustSim(t, Config{N: 3}, buildNoop)
	if n := s.NumActive(); n != 0 {
		t.Fatalf("initial active = %d, want 0", n)
	}
	stepN(t, s, 0, 1) // p0 Enter
	stepN(t, s, 1, 1) // p1 Enter
	if got := s.Active(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("active = %v, want [0 1]", got)
	}
	runToDone(t, s, 0)
	if got := s.Finished(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("finished = %v, want [0]", got)
	}
	if got := s.Active(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("active = %v, want [1]", got)
	}
}

func TestStatusAndSections(t *testing.T) {
	s := mustSim(t, Config{N: 1}, buildNoop)
	if s.Status(0) != NCS {
		t.Fatalf("initial status = %v, want ncs", s.Status(0))
	}
	stepN(t, s, 0, 1) // Enter
	if s.Status(0) != Entry {
		t.Fatalf("status = %v, want entry", s.Status(0))
	}
	stepN(t, s, 0, 1) // CS
	if s.Status(0) != Exit {
		t.Fatalf("status = %v, want exit", s.Status(0))
	}
	stepN(t, s, 0, 1) // Exit
	if s.Status(0) != NCS {
		t.Fatalf("status = %v, want ncs", s.Status(0))
	}
}

func TestStepAfterDoneFails(t *testing.T) {
	s := mustSim(t, Config{N: 1}, buildNoop)
	runToDone(t, s, 0)
	if _, err := s.Step(0); !errors.Is(err, ErrProcDone) {
		t.Fatalf("Step after done = %v, want ErrProcDone", err)
	}
}

func TestCommitEmptyBufferFails(t *testing.T) {
	s := mustSim(t, Config{N: 1}, buildNoop)
	if _, err := s.Commit(0); !errors.Is(err, ErrEmptyBuffer) {
		t.Fatalf("Commit = %v, want ErrEmptyBuffer", err)
	}
}

func TestProgramPanicSurfaced(t *testing.T) {
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		return func(p *Proc) { panic("kaboom") }, nil
	})
	// Enter starts the goroutine, which panics; the panic is converted to
	// an OpDone post.
	stepN(t, s, 0, 1)
	if !s.Done(0) {
		t.Fatal("panicking process should be marked done")
	}
	if msg, ok := s.ProgramPanic(0); !ok || msg != "kaboom" {
		t.Fatalf("panic = %q,%v, want kaboom,true", msg, ok)
	}
}

// TestPanicIsNotCompleted holds Run and RandomPSO.Run to RunResult's
// contract: a run in which a program panicked ends, but is not complete.
func TestPanicIsNotCompleted(t *testing.T) {
	build := func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, 1)
			if p.ID() == 1 {
				panic("kaboom")
			}
			p.CS()
		}, nil
	}
	for _, panics := range []bool{false, true} {
		n := 1
		if panics {
			n = 2
		}
		s := mustSim(t, Config{N: n}, build)
		res, err := Run(s, NewRoundRobin(), 1000)
		if err != nil || res.Completed == panics || s.Completed() == panics {
			t.Fatalf("Run with panic=%t: err=%v completed=%t/%t", panics, err, res.Completed, s.Completed())
		}
		s = mustSim(t, Config{N: n}, build)
		res, err = NewRandomPSO(1, 0.5).Run(s, 1000)
		if err != nil || res.Completed == panics {
			t.Fatalf("RandomPSO.Run with panic=%t: err=%v completed=%t", panics, err, res.Completed)
		}
	}
}

// TestRandomSchedulersCommitDoneBuffers pins that the random schedulers
// commit the writes a process left buffered when its program ended: p0's
// unfenced write is the only way out of p1's spin, and with commit
// probability 0 only a done-process commit can make it visible.
func TestRandomSchedulersCommitDoneBuffers(t *testing.T) {
	build := func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("x")
		return func(p *Proc) {
			if p.ID() == 0 {
				p.CS()
				p.Write(v, 1)
				return
			}
			for p.Read(v) == 0 {
			}
			p.CS()
		}, nil
	}
	for seed := int64(1); seed <= 5; seed++ {
		s := mustSim(t, Config{N: 2}, build)
		if res, err := Run(s, NewRandom(seed, 0), 10_000); err != nil || !res.Completed {
			t.Fatalf("Random seed %d: err=%v completed=%t", seed, err, res.Completed)
		}
		s = mustSim(t, Config{N: 2}, build)
		if res, err := NewRandomPSO(seed, 0).Run(s, 10_000); err != nil || !res.Completed {
			t.Fatalf("RandomPSO seed %d: err=%v completed=%t", seed, err, res.Completed)
		}
	}
}

func TestKillStopsParkedGoroutines(t *testing.T) {
	s, err := NewSimulator(Config{N: 4}, func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("x")
		return func(p *Proc) {
			for p.Read(v) == 0 { // spins forever
			}
			p.CS()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 10; j++ {
			if _, err := s.Step(ProcID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Kill() // must return (waits for all goroutines)
	if _, err := s.Step(0); !errors.Is(err, ErrKilled) {
		t.Fatalf("Step after kill = %v, want ErrKilled", err)
	}
}

func TestExclusionViolationDetected(t *testing.T) {
	// A "lock" that lets everyone in: both processes post CS concurrently.
	s := mustSim(t, Config{N: 2}, buildNoop)
	stepN(t, s, 0, 1) // p0 Enter; pending CS
	stepN(t, s, 1, 1) // p1 Enter; pending CS -> violation
	v := s.ExclusionViolation()
	if v == nil {
		t.Fatal("want exclusion violation")
	}
	if (v.P != 0 || v.Q != 1) && (v.P != 1 || v.Q != 0) {
		t.Errorf("violation between %d and %d, want 0 and 1", v.P, v.Q)
	}
}

func TestSchedulerRunRoundRobin(t *testing.T) {
	s := mustSim(t, Config{N: 5}, func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, uint64(p.ID()))
			p.Fence()
			p.CS()
		}, nil
	})
	res, err := Run(s, NewRoundRobin(), 1000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
}

func TestSchedulerRunRandomSeededDeterministic(t *testing.T) {
	trace := func(seed int64) []Decision {
		s := mustSim(t, Config{N: 4}, func(sim *Simulator) (Program, error) {
			v := sim.Memory().NewVar("x")
			return func(p *Proc) {
				p.Write(v, uint64(p.ID()))
				p.Read(v)
				p.Fence()
				p.CS()
			}, nil
		})
		if _, err := Run(s, NewRandom(seed, 0.3), 10000); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return append([]Decision(nil), s.Execution().Schedule...)
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("seeded runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunStepBudget(t *testing.T) {
	s := mustSim(t, Config{N: 1}, func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("x")
		return func(p *Proc) {
			for p.Read(v) == 0 {
			}
			p.CS()
		}, nil
	})
	_, err := Run(s, NewRoundRobin(), 50)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("Run = %v, want ErrStepBudget", err)
	}
}

func TestReplayErasureInvisibleProcess(t *testing.T) {
	// p1 writes to a variable nobody reads; erasing p1 must leave p0's
	// events identical.
	var a, b *Var
	build := func(sim *Simulator) (Program, error) {
		a = sim.Memory().NewVar("a")
		b = sim.Memory().NewVar("b")
		return func(p *Proc) {
			if p.ID() == 0 {
				p.Read(a)
				p.Write(a, 1)
				p.Fence()
			} else {
				p.Write(b, 99)
				p.Fence()
			}
			p.CS()
		}, nil
	}
	s := mustSim(t, Config{N: 2}, build)
	res, err := Run(s, NewRoundRobin(), 1000)
	if err != nil || !res.Completed {
		t.Fatalf("run: %v completed=%v", err, res.Completed)
	}
	banned := map[ProcID]bool{1: true}
	rs, err := s.Replay(banned)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer rs.Kill()
	if err := VerifyErasure(s.Execution(), rs.Execution(), banned); err != nil {
		t.Fatalf("VerifyErasure: %v", err)
	}
	if got := rs.Value(b); got != 0 {
		t.Errorf("b after erasure = %d, want 0", got)
	}
	if got := rs.Value(a); got != 1 {
		t.Errorf("a after erasure = %d, want 1", got)
	}
}

func TestReplayErasureDetectsVisibleProcess(t *testing.T) {
	// p0 reads the variable p1 wrote: p1 is visible to p0, so erasing p1
	// changes p0's observed value and VerifyErasure must fail.
	var a *Var
	build := func(sim *Simulator) (Program, error) {
		a = sim.Memory().NewVar("a")
		return func(p *Proc) {
			if p.ID() == 1 {
				p.Write(a, 7)
				p.Fence()
			} else {
				p.Read(a)
			}
			p.CS()
		}, nil
	}
	s := mustSim(t, Config{N: 2}, build)
	// p1 commits first, then p0 reads 7.
	stepN(t, s, 1, 5)
	stepN(t, s, 0, 2)
	banned := map[ProcID]bool{1: true}
	rs, err := s.Replay(banned)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer rs.Kill()
	if err := VerifyErasure(s.Execution(), rs.Execution(), banned); err == nil {
		t.Fatal("VerifyErasure should detect divergence for a visible process")
	}
}

func TestSequentialSchedulerSerializes(t *testing.T) {
	s := mustSim(t, Config{N: 3, Passages: 2}, func(sim *Simulator) (Program, error) {
		v := sim.Memory().NewVar("c")
		return func(p *Proc) {
			x := p.Read(v)
			p.CS()
			p.Write(v, x+1)
			p.Fence()
		}, nil
	})
	res, err := Run(s, Sequential{}, 10000)
	if err != nil || !res.Completed {
		t.Fatalf("run: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
}

func TestEventStringAndHelpers(t *testing.T) {
	v := &Var{name: "x", owner: NoOwner}
	e := Event{P: 3, Kind: EvRead, Var: v, Val: 1, Critical: true}
	if got := e.String(); got != "p3 Read x=1 (crit)" {
		t.Errorf("String = %q", got)
	}
	if !e.IsSpecial() {
		t.Error("critical read must be special")
	}
	tr := Event{Kind: EvEnter}
	if !tr.IsTransition() || !tr.IsSpecial() {
		t.Error("Enter must be a special transition")
	}
	f := Event{Kind: EvBeginFence}
	if !f.IsFenceEvent() || !f.IsSpecial() {
		t.Error("BeginFence must be a special fence event")
	}
	plain := Event{Kind: EvRead, Var: v}
	if plain.IsSpecial() {
		t.Error("non-critical read must not be special")
	}
}

func TestCongruentEvents(t *testing.T) {
	v := &Var{index: 1, name: "x"}
	w := &Var{index: 2, name: "y"}
	a := Event{P: 1, Kind: EvRead, Var: v, Val: 3}
	b := Event{P: 1, Kind: EvRead, Var: v, Val: 9}
	if !Congruent(a, b) {
		t.Error("reads of same var by same proc must be congruent")
	}
	c := Event{P: 1, Kind: EvRead, Var: w}
	if Congruent(a, c) {
		t.Error("reads of different vars must not be congruent")
	}
	d := Event{P: 2, Kind: EvRead, Var: v}
	if Congruent(a, d) {
		t.Error("different processes must not be congruent")
	}
	f1 := Event{P: 1, Kind: EvBeginFence}
	f2 := Event{P: 1, Kind: EvBeginFence}
	if !Congruent(f1, f2) {
		t.Error("same fence events must be congruent")
	}
}

func TestExecutionByProcAndErase(t *testing.T) {
	x := &Execution{Events: []Event{
		{Seq: 0, P: 0, Kind: EvEnter},
		{Seq: 1, P: 1, Kind: EvEnter},
		{Seq: 2, P: 0, Kind: EvCS},
	}}
	if got := x.ByProc(0); len(got) != 2 {
		t.Errorf("ByProc(0) = %d events, want 2", len(got))
	}
	erased := x.Erase(map[ProcID]bool{1: true})
	if len(erased) != 2 || erased[0].P != 0 || erased[1].P != 0 {
		t.Errorf("Erase = %v", erased)
	}
}

func TestVarAllocationHelpers(t *testing.T) {
	m := newMemory(DSM)
	vs := m.NewArray("a", 3)
	if len(vs) != 3 || vs[2].Name() != "a[2]" {
		t.Errorf("NewArray = %v", vs)
	}
	ow := m.NewOwnedArray("s", 2)
	if ow[1].Owner() != 1 {
		t.Errorf("owned array owner = %v, want 1", ow[1].Owner())
	}
	iv := m.NewArrayInit("q", 3, []uint64{5, 6})
	if m.load(iv[0]) != 5 || m.load(iv[1]) != 6 || m.load(iv[2]) != 0 {
		t.Error("NewArrayInit initial values wrong")
	}
	if m.Model() != DSM {
		t.Errorf("model = %v", m.Model())
	}
	if m.NumVars() != 8 {
		t.Errorf("NumVars = %d, want 8", m.NumVars())
	}
}

func TestModelAndEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{DSM.String(), "DSM"},
		{CC.String(), "CC"},
		{NCS.String(), "ncs"},
		{Entry.String(), "entry"},
		{Exit.String(), "exit"},
		{ModeRead.String(), "read"},
		{ModeWrite.String(), "write"},
		{OpCommit.String(), "Commit"},
		{EvWriteCommit.String(), "Commit"},
		{EvCAS.String(), "CAS"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	var v *Var
	s := mustSim(t, Config{N: 2, AllowConcurrentCS: true}, func(sim *Simulator) (Program, error) {
		v = sim.Memory().NewVar("x")
		return func(p *Proc) {
			p.Write(v, uint64(p.ID())+1)
			p.Fence()
			p.Read(v)
			p.CS()
		}, nil
	})
	stepN(t, s, 0, 3) // Enter, issue, begin fence
	f, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Kill()
	// Advance only the fork; the original must not move.
	if _, err := f.Step(0); err != nil {
		t.Fatal(err)
	}
	if len(f.Execution().Events) != len(s.Execution().Events)+1 {
		t.Error("fork did not advance independently")
	}
	if s.Value(v) != 0 {
		t.Error("original advanced with the fork")
	}
	if f.Value(v) != 1 {
		t.Error("fork commit not applied")
	}
}

func TestOutOfRangeProcIDRejected(t *testing.T) {
	s := mustSim(t, Config{N: 2}, buildNoop)
	if _, err := s.Step(5); err == nil {
		t.Error("Step with out-of-range id must fail")
	}
	if _, err := s.Step(-1); err == nil {
		t.Error("Step with negative id must fail")
	}
	if _, err := s.Commit(9); err == nil {
		t.Error("Commit with out-of-range id must fail")
	}
	v := s.Memory().NewVar("x")
	if _, err := s.CommitVar(7, v); err == nil {
		t.Error("CommitVar with out-of-range id must fail")
	}
}
