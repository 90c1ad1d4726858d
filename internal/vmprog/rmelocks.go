package vmprog

// This file ports recoverable mutual exclusion (RME) algorithms to VM
// programs. An RME program carries a recover section (Program.Recover): a
// crash drops the write buffer and zeroes the volatile registers, and the
// recovery passage re-enters through the recover section, which inspects
// persistent (committed) shared state to decide whether to roll the
// passage forward (re-enter the CS it still owns, or finish an
// interrupted exit) or roll it back (restart the entry protocol).
//
// The ports follow the discipline of the RME literature (Golab-Ramaraju;
// Katzan-Morrison, arXiv:2011.07622; Dhoked-Mittal, arXiv:2110.08308):
// every recovery-relevant variable is written only through CAS, which the
// engines never buffer, so a crash cannot tear the protocol state; plain
// buffered writes are reserved for state whose loss is harmless. The
// deliberately broken variant (RTASDirty) violates exactly this rule.

// RTAS ports the Golab-Ramaraju recoverable test-and-set lock (also
// internal/mutex's rtas): the lock word holds owner id+1 and is only ever
// changed by CAS, so a crash never loses ownership state in the write
// buffer. Recovery reads the lock word; finding its own stamp means the
// crash hit while holding (or after winning) the lock, so the passage
// rolls forward into the CS; anything else rolls back to the acquire loop.
// Plain TAS, whose anonymous lock word cannot tell "I hold it" from
// "someone holds it", spins forever on its own stamp instead.
func RTAS() (*Program, error) {
	b := NewBuilder("rtas-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	const (
		rMe, rOne, rMe1, rZero, rObs = 0, 1, 2, 3, 4
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne) // stamp = me + 1
	b.Const(rZero, 0)
	b.Label("try")
	b.CAS(rObs, lock, -1, rZero, rMe1)
	b.JumpIfNe(rObs, rZero, "try")
	b.Label("got")
	b.CS()
	b.CAS(rObs, lock, -1, rMe1, rZero) // release via CAS: never buffered
	b.Jump("done")
	b.Label("recover")
	b.Fence() // serialize before trusting shared state (RME idiom)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Read(rObs, lock, -1)
	b.JumpIfEq(rObs, rMe1, "got") // crashed holding: roll forward
	b.Jump("try")                 // otherwise: roll back to acquire
	b.Label("done")
	b.Halt()
	b.SetRecover("recover")
	return b.Build()
}

// KMRME ports a Katzan-Morrison-style recoverable lock (arXiv:2011.07622):
// ownership detection by reading the lock word, plus a per-process
// persistent stage variable (0 idle, 1 trying, 2 in/after CS) advanced only
// by CAS at section boundaries. The exit clears the lock word before the
// stage, so recovery can always classify the crash point: lock stamped
// with me means the passage still owns the CS (roll forward through the
// stage it reached); otherwise stage 2 means the CS completed and only the
// stage cleanup remains, and stage 0/1 means the acquisition never won
// (roll back to the announce step).
func KMRME(n int) (*Program, error) {
	b := NewBuilder("km-rme-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	stage := b.Array("stage", n)
	const (
		rMe, rOne, rMe1, rZero, rObs, rSt, rTwo = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rTwo, 2)
	b.Label("announce")
	b.CAS(rObs, stage, rMe, rZero, rOne) // stage 0 -> 1 (fails harmlessly on re-entry)
	b.Label("try")
	b.CAS(rObs, lock, -1, rZero, rMe1)
	b.JumpIfNe(rObs, rZero, "try")
	b.Label("won")
	b.CAS(rObs, stage, rMe, rOne, rTwo) // stage 1 -> 2
	b.Label("got")
	b.CS()
	b.CAS(rObs, lock, -1, rMe1, rZero)   // release the lock first...
	b.CAS(rObs, stage, rMe, rTwo, rZero) // ...then retire the stage
	b.Jump("done")
	b.Label("recover")
	b.Fence()
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rTwo, 2)
	b.Read(rObs, lock, -1)
	b.JumpIfEq(rObs, rMe1, "mine")
	b.Read(rSt, stage, rMe)
	b.JumpIfEq(rSt, rTwo, "cleanup") // lock released, stage not yet: finish exit
	b.Jump("announce")               // never won: roll back
	b.Label("mine")
	b.Read(rSt, stage, rMe)
	b.JumpIfEq(rSt, rTwo, "got") // crashed in the CS region
	b.Jump("won")                // crashed between the win and the stage update
	b.Label("cleanup")
	b.CAS(rObs, stage, rMe, rTwo, rZero)
	b.Jump("done")
	b.Label("done")
	b.Halt()
	b.SetRecover("recover")
	return b.Build()
}

// DMTAS applies a Dhoked-Mittal-style transformation (arXiv:2110.08308) to
// the TAS registry lock: the base CAS lock is wrapped with a per-process
// critical checkpoint (crit, CAS-maintained, set after winning and cleared
// after releasing) and a persistent per-process crash counter (rc,
// incremented by every recovery - the hook their adaptive-to-crashes cost
// analysis charges against). Recovery classifies the crash point from the
// lock word and the checkpoint: stamped lock rolls forward (through the
// checkpoint or straight into the CS), a set checkpoint without the lock
// means the release happened and only the checkpoint cleanup remains, and
// neither means roll back to the acquire loop.
func DMTAS(n int) (*Program, error) {
	b := NewBuilder("dm-tas-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	crit := b.Array("crit", n)
	rc := b.Array("rc", n)
	const (
		rMe, rOne, rMe1, rZero, rObs, rC, rC1 = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Label("try")
	b.CAS(rObs, lock, -1, rZero, rMe1)
	b.JumpIfNe(rObs, rZero, "try")
	b.Label("won")
	b.CAS(rObs, crit, rMe, rZero, rOne) // checkpoint: inside the critical region
	b.Label("cs")
	b.CS()
	b.CAS(rObs, lock, -1, rMe1, rZero)  // release the lock first...
	b.CAS(rObs, crit, rMe, rOne, rZero) // ...then retire the checkpoint
	b.Jump("done")
	b.Label("recover")
	b.Fence()
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	// Count the crash in the persistent recovery counter (rc is private to
	// this process, so the CAS cannot lose an increment).
	b.Read(rC, rc, rMe)
	b.Add(rC1, rC, rOne)
	b.CAS(rObs, rc, rMe, rC, rC1)
	b.Read(rC, lock, -1)
	b.JumpIfEq(rC, rMe1, "mine")
	b.Read(rC1, crit, rMe)
	b.JumpIfEq(rC1, rOne, "cleanup") // released but checkpoint not retired
	b.Jump("try")                    // never held: roll back
	b.Label("mine")
	b.Read(rC1, crit, rMe)
	b.JumpIfEq(rC1, rOne, "cs") // roll forward into the CS re-execution
	b.Jump("won")               // crashed between the win and the checkpoint
	b.Label("cleanup")
	b.CAS(rObs, crit, rMe, rOne, rZero)
	b.Jump("done")
	b.Label("done")
	b.Halt()
	b.SetRecover("recover")
	return b.Build()
}

// DMQueue applies the same Dhoked-Mittal-style transformation to the
// queue-lock tier. A literal MCS port cannot recover - the predecessor
// pointer obtained from the tail swap lives only in a volatile register,
// so a crash between the swap and the link strands both neighbours - so
// the port uses the registry's persistent-queue equivalent (the caschain
// slot queue, MCS-class handoff order) in which every queue edge is a
// committed CAS: membership and position are recomputed by scanning the
// slot array, and a CAS-maintained done flag marks passage completion.
// Recovery rolls forward from the scan result: an unclaimed process
// restarts the claim loop, a claimed one re-waits on its predecessor (or
// re-enters the CS it still owns), and a completed one just halts.
func DMQueue(n int) (*Program, error) {
	b := NewBuilder("dm-queue-vm")
	b.SetClass(ClassAdaptive)
	slot := b.Array("slot", n)
	done := b.Array("done", n)
	const (
		rMe, rOne, rMe1, rZero, rObs, rM, rPrev, rTmp = 0, 1, 2, 3, 4, 5, 6, 7
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rM, 0)
	b.Label("claim")
	b.CAS(rObs, slot, rM, rZero, rMe1)
	b.JumpIfEq(rObs, rZero, "claimed")
	b.Add(rM, rM, rOne)
	b.Jump("claim")
	b.Label("claimed")
	b.JumpIfEq(rM, rZero, "cs")
	b.Sub(rPrev, rM, rOne)
	b.Label("wait")
	b.Read(rObs, done, rPrev)
	b.JumpIfEq(rObs, rZero, "wait")
	b.Label("cs")
	b.CS()
	b.CAS(rObs, done, rM, rZero, rOne) // completion mark: never buffered
	b.Jump("out")
	b.Label("recover")
	b.Fence()
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Procs(rTmp)
	b.Const(rM, 0)
	b.Label("scan")
	b.JumpIfEq(rM, rTmp, "notq") // scanned every slot: never enqueued
	b.Read(rObs, slot, rM)
	b.JumpIfEq(rObs, rMe1, "found")
	b.Add(rM, rM, rOne)
	b.Jump("scan")
	b.Label("notq")
	b.Const(rM, 0)
	b.Jump("claim") // roll back: the claim CAS is the only persistent step
	b.Label("found")
	b.Read(rObs, done, rM)
	b.JumpIfEq(rObs, rOne, "out") // passage completed before the crash
	b.JumpIfEq(rM, rZero, "cs")   // head of the queue: roll forward to the CS
	b.Sub(rPrev, rM, rOne)
	b.Jump("wait") // re-wait on the predecessor's completion
	b.Label("out")
	b.Halt()
	b.SetRecover("recover")
	return b.Build()
}

// RTASDirty is the deliberately broken RME variant: it tracks the passage
// checkpoint through plain buffered writes (ckpt[me] = 1 trying, 2
// holding, 0 done) and its recover section trusts that checkpoint without
// serializing first. A crash can drop the checkpoint write (recovery then
// restarts against its own committed lock stamp and spins forever) or
// leave a stale committed 2 after the release (recovery then re-enters the
// CS another process now owns). The static analyzer is required to flag
// the unfenced recovery read (recover-stale-read) and the recoverability
// checker to reject the program with a pinned counterexample.
func RTASDirty(n int) (*Program, error) {
	b := NewBuilder("rtas-dirty-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	ckpt := b.Array("ckpt", n)
	const (
		rMe, rOne, rMe1, rZero, rObs, rTwo, rTmp = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rTwo, 2)
	b.Write(ckpt, rMe, rOne) // checkpoint "trying" - buffered, may be lost
	b.Label("try")
	b.CAS(rObs, lock, -1, rZero, rMe1)
	b.JumpIfNe(rObs, rZero, "try")
	b.Write(ckpt, rMe, rTwo) // checkpoint "holding" - buffered, may be lost
	b.Label("got")
	b.CS()
	b.CAS(rObs, lock, -1, rMe1, rZero)
	b.Write(ckpt, rMe, rZero) // checkpoint "done" - buffered, may be lost
	b.Jump("done")
	b.Label("recover")
	// No fence: the recovery bases its decision on a checkpoint whose
	// last write may have been dropped by the crash.
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rTwo, 2)
	b.Read(rTmp, ckpt, rMe)
	b.JumpIfEq(rTmp, rTwo, "got") // trusts the possibly-stale checkpoint
	b.Jump("try")
	b.Label("done")
	b.Halt()
	b.SetRecover("recover")
	return b.Build()
}
