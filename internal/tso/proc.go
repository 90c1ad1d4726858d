package tso

import (
	"fmt"
	"runtime"
)

// Section is the mutual-exclusion section a process is in (the value of the
// paper's private variable section_p).
type Section int

const (
	// NCS is the non-critical section.
	NCS Section = iota + 1
	// Entry is the entry section (the process is trying to enter the CS).
	Entry
	// Exit is the exit section (the process passed the CS and is releasing).
	Exit
)

// String returns the conventional name of the section.
func (s Section) String() string {
	switch s {
	case NCS:
		return "ncs"
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	default:
		return fmt.Sprintf("Section(%d)", int(s))
	}
}

// Mode distinguishes whether a process is executing a fence (write mode, in
// which it may only commit buffered writes) or is between fences (read mode,
// in which its writes are buffered and only reads reach shared memory).
type Mode int

const (
	// ModeRead means the process is between fences.
	ModeRead Mode = iota + 1
	// ModeWrite means the process is executing a fence (or draining its
	// buffer for a serializing CAS).
	ModeWrite
)

// String returns "read" or "write".
func (m Mode) String() string {
	if m == ModeWrite {
		return "write"
	}
	return "read"
}

// OpKind enumerates the operations a process can be about to execute.
type OpKind int

const (
	// OpNone is the zero OpKind; no operation.
	OpNone OpKind = iota
	// OpEnter is the Enter transition.
	OpEnter
	// OpRead is a read of Var.
	OpRead
	// OpWriteIssue places a write to Var in the write buffer.
	OpWriteIssue
	// OpCommit commits the oldest buffered write (to Var). Commits are
	// synthesized by the simulator; programs never post them.
	OpCommit
	// OpBeginFence starts a fence.
	OpBeginFence
	// OpEndFence completes a fence (requires an empty buffer).
	OpEndFence
	// OpCAS is a serializing compare-and-swap on Var.
	OpCAS
	// OpCS is the critical-section transition.
	OpCS
	// OpExit is the Exit transition.
	OpExit
	// OpDone means the process has completed all its passages.
	OpDone
	// OpRecover is the recovery transition of a crashed process. Like
	// OpCommit it is synthesized by the simulator; programs never post it.
	OpRecover
)

// String returns a short mnemonic for the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpNone:
		return "None"
	case OpEnter:
		return "Enter"
	case OpRead:
		return "Read"
	case OpWriteIssue:
		return "WriteIssue"
	case OpCommit:
		return "Commit"
	case OpBeginFence:
		return "BeginFence"
	case OpEndFence:
		return "EndFence"
	case OpCAS:
		return "CAS"
	case OpCS:
		return "CS"
	case OpExit:
		return "Exit"
	case OpDone:
		return "Done"
	case OpRecover:
		return "Recover"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op describes an operation a process is about to execute (its enabled
// event). For OpCommit, Var and Val describe the write that would become
// visible.
type Op struct {
	Kind OpKind
	Var  *Var
	Val  uint64
	Old  uint64 // CAS expected value
}

// String renders the operation compactly.
func (o Op) String() string {
	if o.Var == nil {
		return o.Kind.String()
	}
	switch o.Kind {
	case OpCAS:
		return fmt.Sprintf("%s %s %d->%d", o.Kind, o.Var, o.Old, o.Val)
	case OpRead:
		return fmt.Sprintf("%s %s", o.Kind, o.Var)
	default:
		return fmt.Sprintf("%s %s=%d", o.Kind, o.Var, o.Val)
	}
}

// opResult carries the outcome of a granted operation back to the program.
// A grant with retire set carries no outcome: it tells the parked goroutine
// that its incarnation is over (the process crashed or the simulator was
// killed) and that it must exit.
type opResult struct {
	val    uint64
	ok     bool
	retire bool
}

// PassageStats summarizes one completed or in-progress passage of a process.
type PassageStats struct {
	// Critical is the number of critical events in the passage.
	Critical int
	// Fences is the fence complexity of the passage: completed fences plus
	// serializing CAS operations.
	Fences int
	// Events is the total number of events the process executed.
	Events int
	// Complete reports whether the passage has executed its Exit event.
	Complete bool
	// Crashed reports that the passage was interrupted by a crash; the
	// recovery re-executes the same passage index under a fresh stats
	// entry.
	Crashed bool
}

// Proc is the per-process handle through which algorithm code performs
// shared-memory operations. All methods block until the simulator grants the
// operation; they must only be called from the program goroutine the
// simulator started for this process.
type Proc struct {
	id  ProcID
	sim *Simulator

	// post and grant are the handoff between the program goroutine and the
	// simulator: the goroutine sends each operation on post and then parks
	// on grant until the simulator applies it (see request). Successive
	// incarnations of a crashed process share them, because the retiring
	// goroutine has taken its retire grant before the next one starts.
	post  chan Op
	grant chan opResult

	// Simulator state, these fields included, belongs to whichever
	// goroutine holds the turn: the driving goroutine between driving
	// calls, and a program goroutine from the grant it takes (or its start)
	// to its next post, while it runs ahead (see Simulator.StepWhile). The
	// handoffs order every access, so none needs a lock.
	started bool
	done    bool
	crashed bool
	// parked reports that a program goroutine is waiting on grant (see
	// Simulator.grant for the invariant it tracks).
	parked  bool
	crashes int
	// recovering is set while the current incarnation was spawned by a
	// Recover transition and has not yet passed its (implicit) Enter; the
	// program goroutine reads it through Recovering to dispatch into its
	// recover section.
	recovering bool
	pending    Op // last op the program goroutine issued
	buf        writeBuffer
	section    Section
	mode       Mode
	aw         bitset
	// remoteRead marks, by variable index, the variables this process has
	// remotely read, for the "first remote read" half of Definition 2.
	remoteRead bitset
	// fences counts completed fences (EndFence events) over the whole run.
	fences int
	// passage is the index of the current (or next) passage.
	passage int
	// stats[i] describes one passage attempt in order; a crashed attempt
	// and its re-execution are separate entries with the same passage
	// index.
	stats []PassageStats

	// left is how many more events the current StepWhile may execute, and
	// cont the condition it runs under; both are zero between driving
	// calls. err is an error met while running ahead, for StepWhile to
	// return.
	left int
	cont func(*Simulator, ProcID) bool
	err  error
	// inSim is set while the program goroutine runs simulator code, so that
	// a panic there is handed to the driving goroutine as fault, to be
	// re-raised, and not reported as the program's.
	inSim bool
	fault any
}

// ID returns the process identifier (0..N-1).
func (p *Proc) ID() ProcID { return p.id }

// N returns the number of processes in the simulation.
func (p *Proc) N() int { return p.sim.cfg.N }

// Recovering reports whether this incarnation is a post-crash recovery:
// the passage was interrupted by a crash and is being re-entered, so
// algorithm code should run its recover section first. The flag is set for
// the whole recovery passage of the incarnation that a Recover transition
// spawned.
func (p *Proc) Recovering() bool { return p.recovering }

// Read performs a read of v and returns the value observed: the process's
// own buffered write if one is pending, otherwise the committed value.
func (p *Proc) Read(v *Var) uint64 {
	return p.request(Op{Kind: OpRead, Var: v}).val
}

// Write issues a write of x to v. The write goes to the process's write
// buffer and becomes visible only when committed (by a fence, a CAS, or a
// scheduler-chosen commit).
func (p *Proc) Write(v *Var, x uint64) {
	p.request(Op{Kind: OpWriteIssue, Var: v, Val: x})
}

// Fence executes a full memory fence: all buffered writes are committed in
// issue order before the fence completes.
func (p *Proc) Fence() {
	p.request(Op{Kind: OpBeginFence})
	p.request(Op{Kind: OpEndFence})
}

// CAS performs a serializing compare-and-swap on v: the write buffer is
// drained, then, atomically, if v holds old it is set to new. It returns the
// value of v at the moment of the operation and whether the swap succeeded.
func (p *Proc) CAS(v *Var, old, new uint64) (uint64, bool) {
	r := p.request(Op{Kind: OpCAS, Var: v, Old: old, Val: new})
	return r.val, r.ok
}

// CS executes the critical-section transition. Programs must call it exactly
// once per passage, between their entry and exit protocols.
func (p *Proc) CS() {
	p.request(Op{Kind: OpCS})
}

// request issues op. While the current StepWhile lets it, the goroutine
// applies op itself and returns its result at once; otherwise it posts op
// and blocks until the simulator grants it. A retire grant (the process
// crashed or the simulator was killed while the goroutine was parked) ends
// the goroutine instead.
func (p *Proc) request(op Op) opResult {
	s := p.sim
	p.inSim = true
	s.publish(p, op)
	r, delivered, err := s.run(p)
	p.inSim = false
	if delivered {
		return r
	}
	p.err = err
	p.post <- op
	r = <-p.grant
	if r.retire {
		runtime.Goexit()
	}
	return r
}
