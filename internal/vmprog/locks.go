package vmprog

import "fmt"

// Peterson builds the two-process Peterson lock as a VM program; withFences
// selects the TSO-correct variant. The algorithm is correct under sequential
// consistency, but under TSO it needs a store-load fence between the doorway
// writes (flag, turn) and the spin reads: without it both processes can read
// the other's stale flag from before their buffered writes commit and enter
// the critical section together. The fence-free variant exists to show that
// failure (experiment E8); Attiya et al., "Laws of order" [5], show why such
// fences are unavoidable.
func Peterson(withFences bool) (*Program, error) {
	name := "peterson-vm"
	if !withFences {
		name = "peterson-nofence-vm"
	}
	b := NewBuilder(name)
	b.SetClass(ClassNonAdaptive)
	flag := b.Array("flag", 2)
	turn := b.Var("turn")
	const (
		rMe, rOther, rOne, rTmp, rZero = 0, 1, 2, 3, 4
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Sub(rOther, rOne, rMe) // other = 1 - me
	b.Write(flag, rMe, rOne) // flag[me] = 1
	b.Write(turn, -1, rOther)
	if withFences {
		b.Fence()
	}
	b.Const(rZero, 0)
	b.Label("spin")
	b.Read(rTmp, flag, rOther)
	b.JumpIfEq(rTmp, rZero, "enter")
	b.Read(rTmp, turn, -1)
	b.JumpIfNe(rTmp, rOther, "enter")
	b.Jump("spin")
	b.Label("enter")
	b.CS()
	b.Write(flag, rMe, rZero)
	if withFences {
		b.Fence()
	}
	b.Halt()
	return b.Build()
}

// TAS builds a test-and-set lock (CAS retry loop) as a VM program. Under
// contention k a passage may retry its CAS Θ(k) times, and every CAS costs a
// fence, so the lock is (trivially) adaptive with linear fence complexity,
// as the paper's tradeoff says it must be.
func TAS() (*Program, error) {
	b := NewBuilder("tas-vm")
	b.SetClass(ClassAdaptive)
	lock := b.Var("lock")
	const (
		rMe, rOne, rToken, rZero, rObs = 0, 1, 2, 3, 4
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Add(rToken, rMe, rOne) // token = me + 1
	b.Const(rZero, 0)
	b.Label("try")
	b.CAS(rObs, lock, -1, rZero, rToken)
	b.JumpIfEq(rObs, rZero, "got")
	b.Jump("try")
	b.Label("got")
	b.CS()
	b.Write(lock, -1, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// Bakery builds Lamport's bakery for n processes as a VM program. It is the
// constant-fence, non-adaptive reference point: every passage performs
// exactly three fences (doorway, ticket publication, release) whatever the
// contention, but scans all N processes, so its critical-event count is
// Θ(N), a function of the number of processes rather than of contention.
// That is the profile the paper proves unavoidable for O(1)-fence
// algorithms: by Corollary 1 none can be adaptive. The Attiya-Hendler-Levy
// algorithm [6] cuts this profile's RMR cost to O(log N) with much more
// machinery; its fence/adaptivity shape is the same.
//
// Under TSO the fence after choosing[me] := 1 keeps the ticket reads from
// floating above the doorway announcement, and the fence after the ticket
// write publishes the ticket before the process inspects its competitors;
// both are store-load orderings TSO would otherwise relax.
//
// weakDoorway elides the ticket-publication fence. That variant is broken
// even under TSO, and is kept as a model-checking target. "TSO commits the
// ticket before the choosing flag, so the doorway stays ordered" is not
// enough: the problem is delay, not order. A process can run its whole wait
// loop while its ticket is still buffered and invisible; a competitor then
// draws an equal ticket and the ID tie-break admits both. Under PSO it breaks
// more directly, the choosing flag committing before the ticket.
func Bakery(n int, weakDoorway bool) (*Program, error) {
	name := "bakery-vm"
	if weakDoorway {
		name = "bakery-weak-vm"
	}
	b := NewBuilder(name)
	b.SetClass(ClassNonAdaptive)
	choosing := b.Array("choosing", n)
	number := b.Array("number", n)
	const (
		rMe, rK, rMax, rVal, rOne, rN, rZero, rMine = 0, 1, 2, 3, 4, 5, 6, 7
	)
	b.Me(rMe)
	b.Procs(rN)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	// Doorway: choosing[me] := 1; fence.
	b.Write(choosing, rMe, rOne)
	b.Fence()
	// Ticket scan: max of number[0..n-1].
	b.Const(rMax, 0)
	b.Const(rK, 0)
	b.Label("scan")
	b.JumpIfEq(rK, rN, "scandone")
	b.Read(rVal, number, rK)
	b.JumpIfLt(rMax, rVal, "newmax")
	b.Jump("scannext")
	b.Label("newmax")
	b.Add(rMax, rVal, rZero)
	b.Label("scannext")
	b.Add(rK, rK, rOne)
	b.Jump("scan")
	b.Label("scandone")
	// Publish ticket: number[me] := max+1; choosing[me] := 0.
	b.Add(rMax, rMax, rOne)
	b.Write(number, rMe, rMax)
	b.Write(choosing, rMe, rZero)
	if !weakDoorway {
		b.Fence()
	}
	// Wait loop over every other process.
	b.Const(rK, 0)
	b.Label("wait")
	b.JumpIfEq(rK, rN, "cs")
	b.JumpIfEq(rK, rMe, "skip")
	b.Label("chwait")
	b.Read(rVal, choosing, rK)
	b.JumpIfEq(rVal, rOne, "chwait")
	b.Label("numwait")
	b.Read(rVal, number, rK)
	b.JumpIfEq(rVal, rZero, "skip")
	b.Read(rMine, number, rMe)
	b.JumpIfLt(rMine, rVal, "skip") // my ticket smaller: k defers to me
	b.JumpIfLt(rVal, rMine, "numwait")
	// Equal tickets: smaller ID wins; skip k when me < k.
	b.JumpIfLt(rMe, rK, "skip")
	b.Jump("numwait")
	b.Label("skip")
	b.Add(rK, rK, rOne)
	b.Jump("wait")
	b.Label("cs")
	b.CS()
	b.Write(number, rMe, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// MustPeterson is Peterson, panicking on error (the programs are static, so
// failure is a programming bug).
func MustPeterson(withFences bool) *Program {
	p, err := Peterson(withFences)
	if err != nil {
		panic(err)
	}
	return p
}

// MustTAS is TAS, panicking on error.
func MustTAS() *Program {
	p, err := TAS()
	if err != nil {
		panic(err)
	}
	return p
}

// MustBakery is Bakery, panicking on error.
func MustBakery(n int, weakDoorway bool) *Program {
	p, err := Bakery(n, weakDoorway)
	if err != nil {
		panic(err)
	}
	return p
}

// Dekker builds Dekker's algorithm (the first two-process mutex) as a VM
// program; withFences selects the TSO-correct variant. Like Peterson it
// needs a store-load fence after raising its intent flag.
func Dekker(withFences bool) (*Program, error) {
	name := "dekker-vm"
	if !withFences {
		name = "dekker-nofence-vm"
	}
	b := NewBuilder(name)
	b.SetClass(ClassNonAdaptive)
	wants := b.Array("wants", 2)
	turn := b.Var("turn")
	const (
		rMe, rOther, rOne, rTmp, rZero = 0, 1, 2, 3, 4
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	b.Sub(rOther, rOne, rMe)
	b.Write(wants, rMe, rOne) // wants[me] = 1
	if withFences {
		b.Fence()
	}
	b.Label("check")
	b.Read(rTmp, wants, rOther)
	b.JumpIfEq(rTmp, rZero, "enter")
	b.Read(rTmp, turn, -1)
	b.JumpIfEq(rTmp, rMe, "check") // my turn: keep insisting
	// Other's turn: back off, wait for the turn, then retry.
	b.Write(wants, rMe, rZero)
	if withFences {
		b.Fence()
	}
	b.Label("backoff")
	b.Read(rTmp, turn, -1)
	b.JumpIfNe(rTmp, rMe, "backoff")
	b.Write(wants, rMe, rOne)
	if withFences {
		b.Fence()
	}
	b.Jump("check")
	b.Label("enter")
	b.CS()
	b.Write(turn, -1, rOther)
	b.Write(wants, rMe, rZero)
	if withFences {
		b.Fence()
	}
	b.Halt()
	return b.Build()
}

// MustDekker is Dekker, panicking on error.
func MustDekker(withFences bool) *Program {
	p, err := Dekker(withFences)
	if err != nil {
		panic(err)
	}
	return p
}

// LamportFast builds Lamport's fast mutual exclusion algorithm for n
// processes as a VM program. Its doorway is the classic splitter (x := me;
// check y; y := me; check x): an uncontended passage takes the fast path
// with O(1) accesses, which is the structural seed of every adaptive
// algorithm - and, per the paper, the reason such algorithms cannot keep
// O(1) fences. Writes are fenced individually (the algorithm's correctness
// needs each announcement visible before the next check).
func LamportFast(n int) (*Program, error) {
	b := NewBuilder("lamportfast-vm")
	b.SetClass(ClassAdaptive)
	x := b.Var("x") // splitter first coordinate; holds id+1
	y := b.Var("y") // splitter second coordinate; holds id+1, 0 = free
	flag := b.Array("flag", n)
	const (
		rMe1, rK, rTmp, rOne, rN, rZero, rMe = 0, 1, 2, 3, 4, 5, 6
	)
	b.Me(rMe)
	b.Const(rOne, 1)
	b.Const(rZero, 0)
	b.Procs(rN)
	b.Add(rMe1, rMe, rOne) // me+1, distinguishable from the 0 init
	b.Label("start")
	// flag[me] := 1; x := me.
	b.Write(flag, rMe, rOne)
	b.Fence()
	b.Write(x, -1, rMe1)
	b.Fence()
	// if y != 0: back off and retry.
	b.Read(rTmp, y, -1)
	b.JumpIfEq(rTmp, rZero, "yfree")
	b.Write(flag, rMe, rZero)
	b.Fence()
	b.Label("ywait")
	b.Read(rTmp, y, -1)
	b.JumpIfNe(rTmp, rZero, "ywait")
	b.Jump("start")
	b.Label("yfree")
	// y := me; if x == me: fast path into the CS.
	b.Write(y, -1, rMe1)
	b.Fence()
	b.Read(rTmp, x, -1)
	b.JumpIfEq(rTmp, rMe1, "cs")
	// Slow path: step back, wait for every announced process, and check
	// whether we still own y.
	b.Write(flag, rMe, rZero)
	b.Fence()
	b.Const(rK, 0)
	b.Label("scan")
	b.JumpIfEq(rK, rN, "scandone")
	b.Label("flagwait")
	b.Read(rTmp, flag, rK)
	b.JumpIfEq(rTmp, rOne, "flagwait")
	b.Add(rK, rK, rOne)
	b.Jump("scan")
	b.Label("scandone")
	b.Read(rTmp, y, -1)
	b.JumpIfEq(rTmp, rMe1, "cs")
	b.Label("ywait2")
	b.Read(rTmp, y, -1)
	b.JumpIfNe(rTmp, rZero, "ywait2")
	b.Jump("start")
	b.Label("cs")
	b.CS()
	// Exit: y := 0; flag[me] := 0.
	b.Write(y, -1, rZero)
	b.Write(flag, rMe, rZero)
	b.Fence()
	b.Halt()
	return b.Build()
}

// MustLamportFast is LamportFast, panicking on error.
func MustLamportFast(n int) *Program {
	p, err := LamportFast(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Entry describes one registered VM program: how to instantiate it, the
// process counts it supports, and whether it is a deliberately broken
// variant that the static analyzer (cmd/padlint) is required to flag.
type Entry struct {
	// Name is the registry key (not necessarily the Program.Name).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Build instantiates the program for n processes.
	Build func(n int) (*Program, error)
	// FixedN, when non-zero, is the only process count the program
	// supports; Build ignores its argument then.
	FixedN int
	// Broken marks variants that deliberately elide required fences; the
	// lint gate requires at least one error-severity diagnostic on them.
	Broken bool
	// CrashBroken marks variants whose defect only manifests under
	// crashes: crash-free model checking finds no exclusion violation
	// (and the exclusion tests expect none), but the lint gate still
	// requires an error-severity diagnostic and the recoverability
	// checker must reject the program.
	CrashBroken bool
	// Recoverable declares the expected recoverability verdict under a
	// bounded crash adversary. The RME ports (rtas, km-rme, dm-tas,
	// dm-queue) recover by design. A program without a recover section
	// restarts the passage from its entry against the crashed
	// incarnation's own committed protocol state; locks whose doorway
	// rewrites all of that state on every attempt (peterson, dekker,
	// filter, bakery, burnslynch) are restart-recoverable, while one-shot
	// structures fault or wedge (anderson, caschain, clh, mcs) and the
	// TAS family spins forever on its own stale lock word.
	Recoverable bool
}

// Registry lists every registered VM program, sorted by name. For bakery,
// bakery-weak, burnslynch, caschain, filter, mcs, peterson,
// peterson-nofence, rtas, tas, ttas and tournament (built at any n there)
// the program is also internal/mutex's lock (through AdaptLock); anderson,
// clh and synthetic have goroutine twins there (yanganderson is
// represented by the structurally equivalent tournament tree). The rest of
// the RME tier and dekker, lamportfast and their broken variants exist as
// VM programs only.
func Registry() []Entry {
	return []Entry{
		{Name: "anderson", Doc: "Anderson array queue lock (one-shot, CAS fetch-and-increment)",
			Build: Anderson},
		{Name: "bakery", Doc: "Lamport bakery, fenced doorway",
			Build: func(n int) (*Program, error) { return Bakery(n, false) }, Recoverable: true},
		{Name: "bakery-weak", Doc: "bakery without the ticket-publication fence (TSO-broken)",
			Build: func(n int) (*Program, error) { return Bakery(n, true) }, Broken: true},
		{Name: "burnslynch", Doc: "Burns-Lynch one-bit mutual exclusion",
			Build: BurnsLynch, Recoverable: true},
		{Name: "caschain", Doc: "adaptive one-shot CAS chain",
			Build: CASChain},
		{Name: "clh", Doc: "CLH implicit-queue lock (one-shot)",
			Build: CLH},
		{Name: "dekker", Doc: "Dekker's algorithm, fenced",
			Build: func(int) (*Program, error) { return Dekker(true) }, FixedN: 2, Recoverable: true},
		{Name: "dekker-nofence", Doc: "Dekker without fences (TSO-broken)",
			Build: func(int) (*Program, error) { return Dekker(false) }, FixedN: 2, Broken: true},
		{Name: "dm-queue", Doc: "Dhoked-Mittal-style recoverable slot-queue lock (MCS-class handoff)",
			Build: DMQueue, Recoverable: true},
		{Name: "dm-tas", Doc: "Dhoked-Mittal-style recoverable TAS (checkpoint + crash counter)",
			Build: DMTAS, Recoverable: true},
		{Name: "filter", Doc: "n-process filter lock",
			Build: Filter, Recoverable: true},
		{Name: "km-rme", Doc: "Katzan-Morrison-style recoverable lock (owner stamp + staged CAS)",
			Build: KMRME, Recoverable: true},
		{Name: "lamportfast", Doc: "Lamport's fast mutex (splitter doorway)",
			Build: LamportFast},
		{Name: "mcs", Doc: "MCS queue lock (CAS-emulated swap, one-shot)",
			Build: MCS},
		{Name: "peterson", Doc: "two-process Peterson, fenced",
			Build: func(int) (*Program, error) { return Peterson(true) }, FixedN: 2, Recoverable: true},
		{Name: "peterson-nofence", Doc: "Peterson without fences (TSO-broken)",
			Build: func(int) (*Program, error) { return Peterson(false) }, FixedN: 2, Broken: true},
		{Name: "rtas", Doc: "Golab-Ramaraju recoverable test-and-set (owner-stamped lock word)",
			Build: func(int) (*Program, error) { return RTAS() }, Recoverable: true},
		{Name: "rtas-dirty", Doc: "recoverable TAS with a buffered, unfenced checkpoint (crash-broken)",
			Build: RTASDirty, CrashBroken: true},
		{Name: "synthetic", Doc: "adaptive read/write splitter chain, fenced",
			Build: func(n int) (*Program, error) { return Synthetic(n, true) }},
		{Name: "synthetic-nofence", Doc: "splitter chain without fences (TSO-broken)",
			Build: func(n int) (*Program, error) { return Synthetic(n, false) }, Broken: true},
		{Name: "tas", Doc: "test-and-set via CAS retry",
			Build: func(int) (*Program, error) { return TAS() }},
		{Name: "tournament", Doc: "binary tournament of Peterson locks (4 processes); restart-recoverable under the 2-crash adversary (decided verdict: 31,672,898 crash states, see check.TestTournamentVerdictDecided)",
			Build: func(int) (*Program, error) { return Tournament(4) }, FixedN: 4, Recoverable: true},
		{Name: "ttas", Doc: "test-and-test-and-set via CAS retry",
			Build: func(int) (*Program, error) { return TTAS() }},
	}
}

// LookupEntry returns the registry entry for name.
func LookupEntry(name string) (Entry, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("vmprog: unknown program %q (have %v)", name, Names())
}

// Lookup returns the VM program registered under name, instantiated for n
// processes. A fixed-size program (Entry.FixedN) supports only its own n;
// any other n is an error, since an engine built at that n would run the
// program outside its domain.
func Lookup(name string, n int) (*Program, error) {
	e, err := LookupEntry(name)
	if err != nil {
		return nil, err
	}
	if e.FixedN > 0 && n != e.FixedN {
		return nil, fmt.Errorf("vmprog: %s supports only n=%d, not n=%d", name, e.FixedN, n)
	}
	return e.Build(n)
}

// Names lists the registered VM program names.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.Name
	}
	return out
}
