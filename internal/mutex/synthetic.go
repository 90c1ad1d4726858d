package mutex

import (
	"fmt"

	"priceadaptive/internal/tso"
)

// syntheticLock is a one-shot adaptive mutual-exclusion lock that uses only
// reads and writes - the algorithm class Theorem 1 is about. It exists to be
// the "victim" of the lower-bound construction (experiment E2): it is weak
// obstruction-free and adaptive (the work of a passage depends on the
// contention k, not on N), and - as the theorem says it must - it pays for
// that adaptivity with Θ(k) fences per passage.
//
// Structure. A chain of Moir-Anderson-style splitters assigns each process a
// slot: at splitter m a process writes X[m], fences, and moves right if Y[m]
// is taken; otherwise it writes Y[m]=1, fences, and stops if X[m] still
// holds its value (the classic argument shows at most one process stops per
// splitter; the fences make the argument sound under TSO). Nothing bounds
// how many processes leave a splitter to the right, though: processes
// racing through one can all move on, so under contention the chain can run
// out. That is all weak obstruction-freedom promises: a process running solo
// stops at the first splitter no one has touched, while a contended one may
// run off the end of the chain and panic (the default chain runs out on
// random schedules 5-7 of the mutex tests at n=6, and on 18 of the stress
// test's 30 at n=7).
//
// A stopped process claims its slot (owner[m] := me) and then must enter the
// critical section in slot order. The subtle case is a claim racing with a
// higher-slot process scanning lower slots: the scanner "seals" each lower
// slot before judging it (seal[j] := 1; fence; read owner[j]). By the flag
// principle, either the scanner sees the claim, or the claimant sees the
// seal - in which case it abandons the slot (abandoned[j] := 1) and keeps
// walking the chain. A claimant that sees no seal confirms (confirmed[j] :=
// 1), and scanners wait for confirmed owners to release (done[q] := 1).
type syntheticLock struct {
	x, y      []*tso.Var
	owner     []*tso.Var
	seal      []*tso.Var
	confirmed []*tso.Var
	abandoned []*tso.Var
	done      []*tso.Var
	// slotOf[p] is the slot claimed by p; each entry is touched only by
	// its own process's goroutine.
	slotOf []int
	length int
}

var _ OneShot = (*syntheticLock)(nil)

// NewSynthetic allocates the adaptive read/write lock with the default chain
// length.
func NewSynthetic(mem *tso.Memory, n int) (Lock, error) {
	return NewSyntheticLen(mem, n, 6*n+16)
}

// NewSyntheticLen allocates the lock with an explicit splitter-chain length,
// at least n. No length guarantees that every contended process claims a
// slot; a passage that runs off the end panics (surfaced as a program panic
// by the simulator, and a run with one is not Completed).
func NewSyntheticLen(mem *tso.Memory, n, length int) (Lock, error) {
	if length < n {
		return nil, fmt.Errorf("mutex: synthetic chain length %d < n=%d", length, n)
	}
	return &syntheticLock{
		x:         mem.NewArray("syn.x", length),
		y:         mem.NewArray("syn.y", length),
		owner:     mem.NewArray("syn.owner", length),
		seal:      mem.NewArray("syn.seal", length),
		confirmed: mem.NewArray("syn.confirmed", length),
		abandoned: mem.NewArray("syn.abandoned", length),
		done:      mem.NewArray("syn.done", n),
		slotOf:    make([]int, n),
		length:    length,
	}, nil
}

// Name implements Lock.
func (l *syntheticLock) Name() string { return "synthetic" }

// OneShot implements OneShot.
func (l *syntheticLock) OneShot() bool { return true }

// Lock implements Lock.
func (l *syntheticLock) Lock(p *tso.Proc) {
	me := uint64(p.ID()) + 1
	m := l.claim(p, me)
	l.slotOf[p.ID()] = m
	// Slot order: seal and resolve every lower slot.
	for j := 0; j < m; j++ {
		p.Write(l.seal[j], 1)
		p.Fence()
		o := p.Read(l.owner[j])
		if o == 0 {
			// Flag principle: any claimant of j that has not yet
			// committed its owner write will read our seal and abandon.
			continue
		}
		for {
			if p.Read(l.abandoned[j]) == 1 {
				break
			}
			if p.Read(l.confirmed[j]) == 1 {
				for p.Read(l.done[o-1]) == 0 {
				}
				break
			}
		}
	}
}

// claim walks the splitter chain until it confirms a slot and returns its
// index.
func (l *syntheticLock) claim(p *tso.Proc, me uint64) int {
	for m := 0; m < l.length; m++ {
		p.Write(l.x[m], me)
		p.Fence()
		if p.Read(l.y[m]) == 1 {
			continue // splitter taken: move right
		}
		p.Write(l.y[m], 1)
		p.Fence()
		if p.Read(l.x[m]) != me {
			continue // lost the race: move right
		}
		// Stopped at m (at most one process ever reaches this point for a
		// given splitter). Claim unless a scanner already sealed the slot.
		p.Write(l.owner[m], me)
		p.Fence()
		if p.Read(l.seal[m]) == 1 {
			p.Write(l.abandoned[m], 1)
			p.Fence()
			continue
		}
		p.Write(l.confirmed[m], 1)
		p.Fence()
		return m
	}
	panic(fmt.Sprintf("mutex: synthetic chain of length %d exhausted by p%d", l.length, p.ID()))
}

// Unlock implements Lock.
func (l *syntheticLock) Unlock(p *tso.Proc) {
	p.Write(l.done[p.ID()], 1)
	p.Fence()
}
