package vmprog

import "fmt"

// This file holds the VM programs of the rest of the lock zoo, so that the
// static analyzer (internal/analysis, cmd/padlint) and the fast
// model-checking engine cover all of it; ttas, caschain, mcs, burnslynch,
// filter and tournament are also internal/mutex's definitions of those
// locks. Every program encodes one passage (entry protocol, CS, exit
// protocol); the anderson and clh queue locks are one-shot, matching the
// one-time mutual exclusion setting of the paper's lower bound.

// TTAS builds a test-and-test-and-set lock: spin on a plain read, attempt
// the CAS only when the lock looks free, so an acquisition attempt costs
// O(1) RMRs under CC. Its fence cost is TAS's: one per CAS attempt.
func TTAS() (*Program, error) {
	b := NewBuilder("ttas-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	const (
		rMe, rOne, rToken, rZero, rObs, rTmp = 0, 1, 2, 3, 4, 5
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rToken, rMe, rOne) // token = me + 1
	b.Const(rZero, 0)
	b.Label("spin")
	b.Read(rTmp, lock, -1)
	b.JumpIfNe(rTmp, rZero, "spin")
	b.CAS(rObs, lock, -1, rZero, rToken)
	b.JumpIfNe(rObs, rZero, "spin")
	b.CS()
	b.Write(lock, -1, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// CASChain builds the one-shot adaptive CAS-chain lock: claim the first
// free slot, then wait for the previous slot's owner to release. A claim of
// slot m follows CAS attempts that found slots 0..m-1 held, so at
// contention k every claim lands in slot < k and the passage performs O(k)
// serializing CAS events: linear adaptivity at a Θ(k) fence price, on the
// tradeoff curve of Corollary 2 (an adaptive algorithm cannot do better
// than Ω(log log N) fences). Slots are never recycled, matching the
// one-time mutual exclusion setting of the lower bound.
func CASChain(n int) (*Program, error) {
	b := NewBuilder("caschain-vm")
	b.SetClass(ClassAdaptive)
	slot := b.Array("slot", n)
	done := b.Array("done", n)
	const (
		rMe, rOne, rMe1, rZero, rObs, rM, rPrev = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Const(rM, 0)
	b.Label("try")
	b.CAS(rObs, slot, rM, rZero, rMe1)
	b.JumpIfEq(rObs, rZero, "claimed")
	b.Add(rM, rM, rOne)
	b.Jump("try")
	b.Label("claimed")
	b.JumpIfEq(rM, rZero, "cs")
	b.Sub(rPrev, rM, rOne)
	b.Label("wait")
	b.Read(rObs, done, rPrev)
	b.JumpIfEq(rObs, rZero, "wait")
	b.Label("cs")
	b.CS()
	b.Write(done, rM, rOne)
	b.Fence()
	b.Halt()
	return b.Build()
}

// MCS builds the Mellor-Crummey-Scott queue lock: append to the queue by a
// CAS-emulated swap of the tail, spin on the process's own locked flag, and
// hand the lock to the linked successor on exit. A passage costs O(1) RMRs
// under cache coherence, and under DSM too, since locked[me] is local to
// its spinner; every CAS pays a fence. Each passage re-initializes the
// process's node, so on the goroutine simulator the lock serves any number
// of passages.
func MCS(n int) (*Program, error) {
	b := NewBuilder("mcs-vm")
	b.SetClass(ClassNonAdaptive)
	tail := b.Var("tail")
	next := b.Array("next", n)
	locked := b.OwnedArray("locked", n) // each process spins on its own flag
	const (
		rMe, rOne, rMe1, rZero, rPred, rObs, rIdx, rTmp = 0, 1, 2, 3, 4, 5, 6, 7
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rMe1, rMe, rOne)
	b.Const(rZero, 0)
	b.Write(next, rMe, rZero)
	b.Write(locked, rMe, rOne)
	// Swap tail -> me+1 (the CAS drains the buffer, so the node
	// initialization above is visible before the node is linked).
	b.Label("swap")
	b.Read(rPred, tail, -1)
	b.CAS(rObs, tail, -1, rPred, rMe1)
	b.JumpIfNe(rObs, rPred, "swap")
	b.JumpIfEq(rPred, rZero, "cs") // queue was empty
	// Link behind the predecessor and spin locally.
	b.Sub(rIdx, rPred, rOne)
	b.Write(next, rIdx, rMe1)
	b.Fence()
	b.Label("spin")
	b.Read(rTmp, locked, rMe)
	b.JumpIfEq(rTmp, rOne, "spin")
	b.Label("cs")
	b.CS()
	b.Read(rTmp, next, rMe)
	b.JumpIfNe(rTmp, rZero, "signal")
	// No known successor: try to swing the tail back to empty.
	b.CAS(rObs, tail, -1, rMe1, rZero)
	b.JumpIfEq(rObs, rMe1, "out")
	// A successor is linking itself; wait for the link.
	b.Label("waitlink")
	b.Read(rTmp, next, rMe)
	b.JumpIfEq(rTmp, rZero, "waitlink")
	b.Label("signal")
	b.Sub(rIdx, rTmp, rOne)
	b.Write(locked, rIdx, rZero)
	b.Fence()
	b.Label("out")
	b.Halt()
	return b.Build()
}

// Anderson builds the Anderson array-based queue lock, one-shot so slot
// indices never wrap: fetch-and-increment (a CAS retry loop) assigns a
// slot, slot 0 proceeds immediately, everyone else spins on grant[slot].
func Anderson(n int) (*Program, error) {
	b := NewBuilder("anderson-vm")
	b.SetClass(ClassNonAdaptive)
	ticket := b.Var("ticket")
	grant := b.Array("grant", n)
	const (
		rOne, rSlot, rZero, rObs, rNext, rTmp = 0, 1, 2, 3, 4, 5
	)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	b.Label("fai")
	b.Read(rSlot, ticket, -1)
	b.Add(rNext, rSlot, rOne)
	b.CAS(rObs, ticket, -1, rSlot, rNext)
	b.JumpIfNe(rObs, rSlot, "fai")
	b.JumpIfEq(rSlot, rZero, "cs")
	b.Label("spin")
	b.Read(rTmp, grant, rSlot)
	b.JumpIfEq(rTmp, rZero, "spin")
	b.Label("cs")
	b.CS()
	// Hand over to slot+1 unless this was the last possible slot.
	b.Add(rNext, rSlot, rOne)
	b.Procs(rTmp)
	b.JumpIfEq(rNext, rTmp, "out")
	b.Write(grant, rNext, rOne)
	b.Fence()
	b.Label("out")
	b.Halt()
	return b.Build()
}

// CLH builds the CLH implicit-queue lock, one-shot: process p owns node
// p+1, node 0 is the initially-free ghost node. Enqueue by a CAS-emulated
// swap of the tail, then spin on the predecessor's node.
func CLH(n int) (*Program, error) {
	b := NewBuilder("clh-vm")
	b.SetClass(ClassNonAdaptive)
	tail := b.Var("tail")
	lockedArr := b.Array("locked", n+1)
	const (
		rMe, rOne, rNode, rZero, rPred, rObs, rTmp = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rNode, rMe, rOne)
	b.Const(rZero, 0)
	b.Write(lockedArr, rNode, rOne)
	b.Fence()
	b.Label("swap")
	b.Read(rPred, tail, -1)
	b.CAS(rObs, tail, -1, rPred, rNode)
	b.JumpIfNe(rObs, rPred, "swap")
	b.Label("spin")
	b.Read(rTmp, lockedArr, rPred)
	b.JumpIfEq(rTmp, rOne, "spin")
	b.CS()
	b.Write(lockedArr, rNode, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// BurnsLynch builds the Burns-Lynch one-bit algorithm: a two-round scan,
// deferring to lower IDs (with restart) and waiting out higher IDs. It uses
// the least shared space possible, one bit per process, and is
// deadlock-free but not starvation-free. Like bakery it is non-adaptive
// (every passage scans all N flags), with one fence per flag write.
func BurnsLynch(n int) (*Program, error) {
	b := NewBuilder("burnslynch-vm")
	b.SetClass(ClassNonAdaptive)
	flag := b.Array("flag", n)
	const (
		rMe, rOne, rJ, rZero, rTmp, rN = 0, 1, 2, 3, 4, 5
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	b.Procs(rN)
	b.Label("restart")
	b.Write(flag, rMe, rZero)
	b.Fence()
	b.Const(rJ, 0)
	b.Label("scan1") // round 1: defer to any lower-ID contender
	b.JumpIfEq(rJ, rMe, "raise")
	b.Read(rTmp, flag, rJ)
	b.JumpIfEq(rTmp, rOne, "restart")
	b.Add(rJ, rJ, rOne)
	b.Jump("scan1")
	b.Label("raise")
	b.Write(flag, rMe, rOne)
	b.Fence()
	b.Const(rJ, 0)
	b.Label("scan2") // re-scan the lower IDs; any contender forces a restart
	b.JumpIfEq(rJ, rMe, "round2")
	b.Read(rTmp, flag, rJ)
	b.JumpIfEq(rTmp, rOne, "restart")
	b.Add(rJ, rJ, rOne)
	b.Jump("scan2")
	b.Label("round2") // wait out every higher-ID process
	b.Add(rJ, rMe, rOne)
	b.Label("scan3")
	b.JumpIfEq(rJ, rN, "cs")
	b.Label("wait3")
	b.Read(rTmp, flag, rJ)
	b.JumpIfEq(rTmp, rOne, "wait3")
	b.Add(rJ, rJ, rOne)
	b.Jump("scan3")
	b.Label("cs")
	b.CS()
	b.Write(flag, rMe, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// Filter builds the n-process filter lock (n >= 2): n-1 levels, each
// filtering out one process; a process waits at a level while it is the
// victim and some other process is at the same level or higher. Under TSO
// each level's doorway (level and victim writes) is fenced before the
// level's spin reads. With Θ(N) fences and a scan of every process at every
// level (Θ(N^2) reads), it is a correctness baseline, not a performance
// point. The level loop is rotated into do-while form (the exit test sits
// after the body's fence) so that every static path from entry to the CS
// crosses a fence - the shape the analyzer's unfenced-cs-path check
// certifies.
func Filter(n int) (*Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("vmprog: filter requires n >= 2, got %d", n)
	}
	b := NewBuilder("filter-vm")
	b.SetClass(ClassNonAdaptive)
	level := b.Array("level", n)
	victim := b.Array("victim", n) // victim[0] unused
	const (
		rMe, rOne, rLvl, rZero, rTmp, rN, rK, rMe1 = 0, 1, 2, 3, 4, 5, 6, 7
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	b.Procs(rN)
	b.Add(rMe1, rMe, rOne)
	b.Const(rLvl, 1)
	b.Label("levels")
	b.Write(level, rMe, rLvl)
	b.Write(victim, rLvl, rMe1)
	b.Fence()
	b.Label("spinlvl")
	b.Read(rTmp, victim, rLvl)
	b.JumpIfNe(rTmp, rMe1, "nextlvl") // someone else became the victim
	b.Const(rK, 0)
	b.Label("scank")
	b.JumpIfEq(rK, rN, "nextlvl") // no conflict anywhere
	b.JumpIfEq(rK, rMe, "skipk")
	b.Read(rTmp, level, rK)
	b.JumpIfLt(rTmp, rLvl, "skipk")
	b.Jump("spinlvl") // conflict: k is at this level or higher
	b.Label("skipk")
	b.Add(rK, rK, rOne)
	b.Jump("scank")
	b.Label("nextlvl")
	b.Add(rLvl, rLvl, rOne)
	b.JumpIfLt(rLvl, rN, "levels") // more levels to climb
	b.CS()
	b.Write(level, rMe, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// Tournament builds the binary tournament of Peterson locks for n >= 1
// processes, in the style of Yang and Anderson's tournament mutex: each
// process climbs ceil(log2 n) levels from its leaf to the root, competing
// at each internal node against the process arriving from the sibling
// subtree, so both the RMR and the fence complexity of a passage are
// Θ(log N), independent of contention - the classic non-adaptive O(log N)
// point that Attiya, Hendler and Levy later improved to O(1) fences. The
// exit releases the nodes top-down, so a competitor waiting at a higher
// node proceeds before lower nodes reopen.
//
// The tree has L = 2^ceil(log2 n) leaves and heap-indexed nodes (root 1).
// Per-node flags live in one array indexed by 2*node+role, role 0 being the
// competitor from the left subtree. At level l (1 = just above the leaves)
// a process's flag index is fi = (L+me)>>(l-1), its rival's fi^1, the node
// fi>>1 and the rival's role 1-(fi&1). The VM has no shift instruction, but
// these are constants per process, so each level opens with a dispatch on
// the process ID that loads them.
func Tournament(n int) (*Program, error) {
	if n < 1 {
		return nil, fmt.Errorf("vmprog: tournament requires n >= 1, got %d", n)
	}
	leaves, levels := 1, 0
	for leaves < n {
		leaves *= 2
		levels++
	}
	b := NewBuilder("tournament-vm")
	b.SetClass(ClassNonAdaptive)
	flag := b.Array("flag", 2*leaves) // flag[2*node+role], nodes 1..L-1
	turn := b.Array("turn", leaves)   // turn[node], nodes 1..L-1
	const (
		rMe, rOne, rZero, rTmp, rNode, rFi, rOi, rOth = 0, 1, 2, 3, 4, 5, 6, 7
	)
	// dispatch loads the level-l flag index and, for a competition, the
	// node, the rival's flag index and the rival's role. Level l groups
	// the processes by w = 2^(l-1) consecutive IDs; group g's flag index
	// is L/w + g. The last group is the fall-through case.
	dispatch := func(l int, compete bool) {
		w := 1 << (l - 1)
		groups := (n + w - 1) / w
		load := func(g int) {
			fi := leaves/w + g
			if compete {
				b.Const(rNode, uint64(fi>>1))
			}
			b.Const(rFi, uint64(fi))
			if compete {
				b.Const(rOi, uint64(fi^1))
				b.Const(rOth, uint64(1-(fi&1)))
			}
		}
		stage := "exit"
		if compete {
			stage = "entry"
		}
		label := func(g int) string { return fmt.Sprintf("%s%dg%d", stage, l, g) }
		done := fmt.Sprintf("%s%d", stage, l)
		for g := 0; g < groups-1; g++ {
			b.Const(rTmp, uint64((g+1)*w))
			b.JumpIfLt(rMe, rTmp, label(g))
		}
		load(groups - 1)
		for g := 0; g < groups-1; g++ {
			b.Jump(done)
			b.Label(label(g))
			load(g)
		}
		b.Label(done)
	}
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	for l := 1; l <= levels; l++ {
		dispatch(l, true)
		b.Write(flag, rFi, rOne)
		b.Write(turn, rNode, rOth)
		b.Fence()
		spin, won := fmt.Sprintf("spin%d", l), fmt.Sprintf("won%d", l)
		b.Label(spin)
		b.Read(rTmp, flag, rOi)
		b.JumpIfNe(rTmp, rOne, won)
		b.Read(rTmp, turn, rNode)
		b.JumpIfEq(rTmp, rOth, spin)
		b.Label(won)
	}
	b.CS()
	for l := levels; l >= 1; l-- {
		switch {
		case l == levels: // the root's flag index is still in rFi
		case l == 1: // fi = L + me
			b.Const(rTmp, uint64(leaves))
			b.Add(rFi, rMe, rTmp)
		default:
			dispatch(l, false)
		}
		b.Write(flag, rFi, rZero)
	}
	b.Fence()
	b.Halt()
	return b.Build()
}

// Synthetic builds the adaptive read/write splitter-chain lock of
// internal/mutex/synthetic.go as a VM program, with a chain of 2n splitters
// where the goroutine lock has 6n+16: walk a chain of Moir-Anderson
// splitters to claim a slot (the seal/confirm/abandon protocol arbitrates
// claims against scanners), then resolve every lower slot in order.
// withFences selects the TSO-correct variant; the fenceless one is the
// analyzer's canonical broken program - its splitter reads its own buffered
// x-write (store forwarding), so two processes can both win splitter 0.
func Synthetic(n int, withFences bool) (*Program, error) {
	name := "synthetic-vm"
	if !withFences {
		name = "synthetic-nofence-vm"
	}
	if n < 1 {
		return nil, fmt.Errorf("vmprog: synthetic requires n >= 1, got %d", n)
	}
	length := 2 * n
	b := NewBuilder(name)
	b.SetClass(ClassAdaptive)
	x := b.Array("x", length)
	y := b.Array("y", length)
	owner := b.Array("owner", length)
	seal := b.Array("seal", length)
	confirmed := b.Array("confirmed", length)
	abandoned := b.Array("abandoned", length)
	done := b.Array("done", n)
	const (
		rMe1, rM, rJ, rZero, rOne, rTmp, rO, rL = 0, 1, 2, 3, 4, 5, 6, 7
	)
	fence := func() {
		if withFences {
			b.Fence()
		}
	}
	b.Me(rTmp)
	b.Const(rOne, 1)
	b.Add(rMe1, rTmp, rOne)
	b.Const(rZero, 0)
	b.Const(rL, uint64(length))
	b.Const(rM, 0)
	// Claim phase: walk the splitter chain.
	b.Label("claim")
	b.JumpIfEq(rM, rL, "stuck")
	b.Write(x, rM, rMe1)
	fence()
	b.Read(rTmp, y, rM)
	b.JumpIfEq(rTmp, rOne, "right") // splitter taken: move right
	b.Write(y, rM, rOne)
	fence()
	b.Read(rTmp, x, rM)
	b.JumpIfNe(rTmp, rMe1, "right") // lost the race: move right
	// Stopped at m: claim unless a scanner already sealed the slot.
	b.Write(owner, rM, rMe1)
	fence()
	b.Read(rTmp, seal, rM)
	b.JumpIfEq(rTmp, rOne, "sealed")
	b.Write(confirmed, rM, rOne)
	fence()
	b.Jump("scan")
	b.Label("sealed")
	b.Write(abandoned, rM, rOne)
	fence()
	b.Label("right")
	b.Add(rM, rM, rOne)
	b.Jump("claim")
	// Contended processes can all leave a splitter to the right, so the
	// chain can run out; a process that exhausts it parks on a harmless
	// read instead of entering the CS.
	b.Label("stuck")
	b.Read(rTmp, x, rZero)
	b.Jump("stuck")
	// Slot order: seal and resolve every lower slot.
	b.Label("scan")
	b.Const(rJ, 0)
	b.Label("scanloop")
	b.JumpIfEq(rJ, rM, "cs")
	b.Write(seal, rJ, rOne)
	fence()
	b.Read(rO, owner, rJ)
	b.JumpIfEq(rO, rZero, "nextj") // unclaimed and sealed: skip
	b.Label("resolve")
	b.Read(rTmp, abandoned, rJ)
	b.JumpIfEq(rTmp, rOne, "nextj")
	b.Read(rTmp, confirmed, rJ)
	b.JumpIfNe(rTmp, rOne, "resolve")
	b.Sub(rO, rO, rOne) // wait for done[owner-1]
	b.Label("waitdone")
	b.Read(rTmp, done, rO)
	b.JumpIfEq(rTmp, rZero, "waitdone")
	b.Label("nextj")
	b.Add(rJ, rJ, rOne)
	b.Jump("scanloop")
	b.Label("cs")
	b.CS()
	b.Sub(rTmp, rMe1, rOne)
	b.Write(done, rTmp, rOne)
	fence()
	b.Halt()
	return b.Build()
}
