package tso

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"priceadaptive/internal/obsv"
)

// Errors returned by the simulator's driving methods.
var (
	// ErrKilled is returned when the simulator has been killed.
	ErrKilled = errors.New("tso: simulator killed")
	// ErrProcDone is returned when stepping a process that has completed
	// all its passages.
	ErrProcDone = errors.New("tso: process has completed all passages")
	// ErrEmptyBuffer is returned by Commit when the write buffer is empty.
	ErrEmptyBuffer = errors.New("tso: write buffer is empty")
)

// ProgramError reports that algorithm code violated the harness protocol
// (for example, calling CS outside the entry section).
type ProgramError struct {
	P      ProcID
	Reason string
}

// Error implements the error interface.
func (e *ProgramError) Error() string {
	return fmt.Sprintf("tso: program error on p%d: %s", e.P, e.Reason)
}

// Program is the body of a single passage: the entry protocol, exactly one
// call to Proc.CS, and the exit protocol. The harness wraps it with the
// Enter and Exit transition events.
type Program func(p *Proc)

// Build allocates the shared variables of an algorithm on the simulator's
// Memory and returns the per-passage program. It runs once per simulator
// instance; replays call it again on a fresh instance, so it must be
// deterministic.
type Build func(sim *Simulator) (Program, error)

// Config parameterizes a simulation.
type Config struct {
	// N is the number of processes.
	N int
	// Model selects DSM or CC variable locality. Defaults to CC.
	Model Model
	// Passages is the number of passages each process performs. Defaults
	// to 1, which is what the lower-bound construction uses (one-time
	// mutual exclusion).
	Passages int
	// Name is an optional diagnostic label.
	Name string
	// AllowConcurrentCS disables the exclusion-violation detector. Set it
	// for programs that are not mutual-exclusion algorithms (each passage
	// must still execute one CS transition, but concurrent enabled CS
	// events are then expected).
	AllowConcurrentCS bool
	// Ordering selects TSO (default) or PSO write-visibility ordering.
	Ordering Ordering
	// Sink, when non-nil, receives every recorded event as it happens
	// (execution tracing; see internal/obsv). Replays run with the sink
	// stripped so reconstructed prefixes are not double-emitted.
	Sink obsv.Sink
}

// Violation describes a detected breach of the exclusion property: two CS
// events simultaneously enabled (the paper's definition of a mutual
// exclusion failure).
type Violation struct {
	// P and Q are the processes whose CS events were simultaneously
	// enabled.
	P, Q ProcID
	// Seq is the length of the execution when the violation was detected.
	Seq int
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("tso: exclusion violated: CS_p%d and CS_p%d simultaneously enabled at seq %d", v.P, v.Q, v.Seq)
}

// Simulator drives N processes through the TSO operational model. It is not
// safe for concurrent use: exactly one goroutine (the scheduler or
// adversary) may call its driving methods.
type Simulator struct {
	cfg   Config
	build Build
	mem   *Memory
	prog  Program
	procs []*Proc
	exec  Execution

	killed bool
	wg     sync.WaitGroup

	// Per-variable execution state, indexed by Var.Index. The sets are nil
	// until the variable's first committed write or access.
	lastWriter []int    // committing process, or -1 for ⊥
	varAW      []bitset // awareness carried by the last committed write
	accessed   []bitset // processes that accessed the variable

	actCount  int
	finished  map[ProcID]bool
	observers []func(Event)
	sink      obsv.Sink
	violation *Violation

	// panicErr records a panic from a program goroutine (read after the
	// corresponding OpDone post, so no lock is needed).
	panicErr map[ProcID]string
}

// NewSimulator constructs a simulator for cfg and runs build to set up the
// algorithm's shared variables.
func NewSimulator(cfg Config, build Build) (*Simulator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("tso: config.N must be positive, got %d", cfg.N)
	}
	if cfg.Passages <= 0 {
		cfg.Passages = 1
	}
	if cfg.Model == 0 {
		cfg.Model = CC
	}
	if cfg.Ordering == 0 {
		cfg.Ordering = TSO
	}
	s := &Simulator{
		cfg:      cfg,
		build:    build,
		mem:      newMemory(cfg.Model),
		finished: make(map[ProcID]bool),
		panicErr: make(map[ProcID]string),
		sink:     cfg.Sink,
	}
	s.procs = make([]*Proc, cfg.N)
	for i := range s.procs {
		p := &Proc{
			id:      ProcID(i),
			sim:     s,
			post:    make(chan Op),
			grant:   make(chan opResult),
			section: NCS,
			mode:    ModeRead,
			aw:      newBitset(cfg.N),
		}
		p.aw.set(i)
		s.procs[i] = p
	}
	prog, err := build(s)
	if err != nil {
		return nil, fmt.Errorf("tso: build: %w", err)
	}
	if prog == nil {
		return nil, errors.New("tso: build returned nil program")
	}
	s.prog = prog
	s.growVarState()
	return s, nil
}

func (s *Simulator) growVarState() {
	for len(s.lastWriter) < s.mem.NumVars() {
		s.lastWriter = append(s.lastWriter, -1)
		s.varAW = append(s.varAW, nil)
		s.accessed = append(s.accessed, nil)
	}
}

// Memory returns the simulator's variable store.
func (s *Simulator) Memory() *Memory { return s.mem }

// Config returns the simulation configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Execution returns the recorded execution. The returned pointer aliases
// live state and must not be modified.
func (s *Simulator) Execution() *Execution { return &s.exec }

// AddObserver registers fn to be called after every recorded event. Like
// the Config's Sink, fn runs on whichever goroutine holds the turn: the
// driving goroutine, or during a StepWhile the program goroutine running
// ahead. The handoffs order the calls, so fn needs no lock.
func (s *Simulator) AddObserver(fn func(Event)) {
	s.observers = append(s.observers, fn)
}

// ExclusionViolation returns the first detected exclusion violation, if any.
func (s *Simulator) ExclusionViolation() *Violation { return s.violation }

// Kill terminates all program goroutines and waits for them to exit. The
// simulator must not be used afterwards.
func (s *Simulator) Kill() {
	if s.killed {
		return
	}
	s.killed = true
	for _, p := range s.procs {
		if p.parked {
			s.grant(p, opResult{retire: true})
		}
	}
	s.wg.Wait()
}

// grant hands r to p's parked program goroutine and returns once the
// goroutine has taken it.
//
// The handoff rests on one invariant: between driving calls, every started,
// unfinished, uncrashed process has exactly one program goroutine parked on
// its grant channel (the one whose post receivePost took last), and no
// other process has any. Enter and Recover spawn the goroutine and wait for
// its first post; a grant lets it run to its next post (past the operations
// it applies itself in a StepWhile run), which the simulator waits for
// before returning; a finished goroutine returns after posting OpDone; a
// crashed or killed one exits on its retire grant. So the simulator never
// waits on more than one goroutine, and needs no select.
// p.parked records the invariant at the channel operations themselves, so a
// grant with no goroutine to take it panics instead of deadlocking.
func (s *Simulator) grant(p *Proc, r opResult) {
	if !p.parked {
		panic(fmt.Sprintf("tso: grant to p%d, which has no parked goroutine", p.id))
	}
	p.parked = false
	p.grant <- r
}

// remote reports whether v is remote with respect to process id.
func (s *Simulator) remote(id ProcID, v *Var) bool { return v.owner != id }

// PendingOp returns the operation process id is about to execute: Enter for
// a process that has not started, Recover for a crashed process, a Commit
// of its oldest buffered write if it is executing a fence (or draining for
// a CAS) with a non-empty buffer, and otherwise the operation its program
// posted.
func (s *Simulator) PendingOp(id ProcID) Op {
	p := s.procs[id]
	if p.done {
		return Op{Kind: OpDone}
	}
	if !p.started {
		return Op{Kind: OpEnter}
	}
	if p.crashed {
		return Op{Kind: OpRecover}
	}
	if !p.buf.empty() && (p.mode == ModeWrite || p.pending.Kind == OpCAS) {
		h := p.buf.head()
		return Op{Kind: OpCommit, Var: h.v, Val: h.x}
	}
	return p.pending
}

// PendingCritical reports whether the pending operation of process id would
// be a critical event (Definition 2) if executed now.
func (s *Simulator) PendingCritical(id ProcID) bool {
	p := s.procs[id]
	op := s.PendingOp(id)
	switch op.Kind {
	case OpRead:
		if _, buffered := p.buf.lookup(op.Var); buffered {
			return false
		}
		return s.remote(id, op.Var) && !p.remoteRead.has(op.Var.index)
	case OpCommit:
		return s.lastWriter[op.Var.index] != int(id)
	case OpCAS:
		if s.remote(id, op.Var) && !p.remoteRead.has(op.Var.index) {
			return true
		}
		return s.lastWriter[op.Var.index] != int(id)
	default:
		return false
	}
}

// PendingSpecial reports whether the pending operation of process id would
// be a special event (Definition 3): critical, a transition, or a fence
// event.
func (s *Simulator) PendingSpecial(id ProcID) bool {
	switch s.PendingOp(id).Kind {
	case OpEnter, OpBeginFence, OpEndFence, OpCS, OpExit, OpCAS, OpDone, OpRecover:
		return true
	default:
		return s.PendingCritical(id)
	}
}

// Step lets process id execute its next event: its Enter transition if it
// has not started, a commit of its oldest buffered write if it is executing
// a fence with a non-empty buffer, and otherwise its next program event. It
// is StepWhile's one-event case.
func (s *Simulator) Step(id ProcID) (Event, error) {
	if _, err := s.StepWhile(id, 1, nil); err != nil {
		return Event{}, err
	}
	return s.exec.Events[len(s.exec.Events)-1], nil
}

// StepWhile lets process id execute up to max events, each the one Step
// would execute: the first unconditionally, and each further one while
// cont, if non-nil, holds for the simulator as the previous event left it.
// It stops early when the process's program ends, and returns how many
// events it executed. Each is recorded with a Decision{P: id}, as a Step
// is. An error leaves the state Step's error leaves: the failing operation
// stays pending and records nothing, and the events before it stay.
//
// The process runs ahead on its program goroutine: after the first event
// it applies its own operations as it issues them, and hands the turn back
// only when it stops, so a run of k events costs one handoff instead of k.
// cont runs on that goroutine, and must only inspect the simulator it is
// passed.
func (s *Simulator) StepWhile(id ProcID, max int, cont func(*Simulator, ProcID) bool) (int, error) {
	if s.killed {
		return 0, ErrKilled
	}
	if int(id) < 0 || int(id) >= len(s.procs) {
		return 0, fmt.Errorf("tso: process id %d out of range [0,%d)", id, len(s.procs))
	}
	if max < 1 {
		return 0, fmt.Errorf("tso: StepWhile of p%d for %d events, want at least 1", id, max)
	}
	p := s.procs[id]
	if p.done {
		return 0, fmt.Errorf("p%d: %w", id, ErrProcDone)
	}
	p.left, p.cont = max, cont
	err := s.stepFirst(p)
	if err == nil {
		err = p.err
	}
	n := max - p.left
	p.left, p.cont, p.err = 0, nil, nil
	return n, err
}

// Commit makes the oldest write in process id's buffer visible, modeling the
// adversary choosing to commit instead of letting the process execute.
func (s *Simulator) Commit(id ProcID) (Event, error) {
	if s.killed {
		return Event{}, ErrKilled
	}
	if int(id) < 0 || int(id) >= len(s.procs) {
		return Event{}, fmt.Errorf("tso: process id %d out of range [0,%d)", id, len(s.procs))
	}
	p := s.procs[id]
	if p.buf.empty() {
		return Event{}, ErrEmptyBuffer
	}
	ev := s.applyCommit(p)
	s.exec.Schedule = appendLog(s.exec.Schedule, Decision{P: id, Commit: true})
	return ev, nil
}

// CommitVar makes process id's buffered write to v visible, out of issue
// order. It is only legal under PSO (under TSO writes commit in issue
// order, except that committing the oldest write is always allowed).
func (s *Simulator) CommitVar(id ProcID, v *Var) (Event, error) {
	if s.killed {
		return Event{}, ErrKilled
	}
	if int(id) < 0 || int(id) >= len(s.procs) {
		return Event{}, fmt.Errorf("tso: process id %d out of range [0,%d)", id, len(s.procs))
	}
	p := s.procs[id]
	if p.buf.empty() {
		return Event{}, ErrEmptyBuffer
	}
	if s.cfg.Ordering != PSO && p.buf.head().v.index != v.index {
		return Event{}, fmt.Errorf("tso: out-of-order commit of %s requires PSO ordering", v)
	}
	w, ok := p.buf.popVar(v.Index())
	if !ok {
		return Event{}, fmt.Errorf("tso: p%d has no buffered write to %s", id, v)
	}
	ev := s.applyCommitted(p, w)
	s.exec.Schedule = appendLog(s.exec.Schedule, Decision{P: id, Commit: true, VarPlus1: v.Index() + 1})
	return ev, nil
}

// BufferedVars returns the variables process id has buffered writes to, in
// issue order.
func (s *Simulator) BufferedVars(id ProcID) []*Var {
	idxs := s.procs[id].buf.vars()
	out := make([]*Var, len(idxs))
	for i, vi := range idxs {
		out[i] = s.mem.vars[vi]
	}
	return out
}

// stepFirst executes the first event of a StepWhile on the driving
// goroutine. If that event delivers a result to the program, or starts a
// program goroutine, the goroutine runs ahead with the rest of the budget
// until it posts.
func (s *Simulator) stepFirst(p *Proc) error {
	if p.started && !p.crashed {
		res, delivered, err := s.advance(p)
		if err == nil && !delivered {
			res, delivered, err = s.run(p)
		}
		if err != nil || !delivered {
			return err
		}
		s.grant(p, res)
		s.receivePost(p)
		return nil
	}
	if p.crashed {
		s.applyRecover(p)
	} else if err := s.applyEnter(p); err != nil {
		return err
	}
	p.started = true
	s.decided(p)
	s.wg.Add(1)
	go s.procBody(p, p.passage)
	s.receivePost(p)
	return nil
}

// run executes p's events while its StepWhile budget lasts and its
// condition holds, and returns the result of the first one that is an
// operation of p's program, with delivered set. The driving goroutine calls
// it for the commits that follow a StepWhile's first event, and the program
// goroutine for its own operations while it runs ahead.
func (s *Simulator) run(p *Proc) (res opResult, delivered bool, err error) {
	for p.left > 0 && (p.cont == nil || p.cont(s, p.id)) {
		if res, delivered, err = s.advance(p); delivered || err != nil {
			return res, delivered, err
		}
	}
	return opResult{}, false, nil
}

// advance executes the next event of p, a started, uncrashed process whose
// program has issued an operation: a commit of its oldest buffered write if
// it is executing a fence, or draining its buffer for a CAS, and otherwise
// that operation, whose result it returns with delivered set. An operation
// that fails stays pending and records nothing.
func (s *Simulator) advance(p *Proc) (res opResult, delivered bool, err error) {
	op := s.PendingOp(p.id)
	if op.Kind == OpCommit {
		s.applyCommit(p)
		s.decided(p)
		return opResult{}, false, nil
	}
	if res, err = s.apply(p, op); err != nil {
		return opResult{}, false, err
	}
	s.decided(p)
	return res, true, nil
}

// decided records the Decision of the event p just executed and charges it
// to the StepWhile budget.
func (s *Simulator) decided(p *Proc) {
	s.exec.Schedule = appendLog(s.exec.Schedule, Decision{P: p.id})
	p.left--
}

// appendLog appends x to an execution log, doubling the log's capacity when
// it is full. append grows a large slice by about 1.25×, which copies a log
// of hundreds of thousands of entries many times over.
func appendLog[T any](log []T, x T) []T {
	if len(log) == cap(log) {
		log = slices.Grow(log, len(log)+1)
	}
	return append(log, x)
}

// Crash models a crash-stop failure of process id (the recoverable
// mutual-exclusion setting): the process's write buffer and all volatile
// per-process state — registers, fence mode, awareness, cached remote
// reads — are discarded; committed shared memory persists. The process
// drops out of Act(E) until the scheduler steps it again, which executes
// its Recover transition and re-runs the interrupted passage from the top.
// Crashing is legal for a started, non-done, non-crashed process.
func (s *Simulator) Crash(id ProcID) (Event, error) {
	if s.killed {
		return Event{}, ErrKilled
	}
	if int(id) < 0 || int(id) >= len(s.procs) {
		return Event{}, fmt.Errorf("tso: process id %d out of range [0,%d)", id, len(s.procs))
	}
	p := s.procs[id]
	if !p.started {
		return Event{}, fmt.Errorf("tso: cannot crash p%d before its first Enter", id)
	}
	if p.done {
		return Event{}, fmt.Errorf("p%d: %w", id, ErrProcDone)
	}
	if p.crashed {
		return Event{}, fmt.Errorf("tso: p%d is already crashed", id)
	}
	// Retire the current program goroutine, which is parked on its grant.
	s.grant(p, opResult{retire: true})
	// Volatile state is lost.
	p.buf = writeBuffer{}
	p.mode = ModeRead
	p.pending = Op{}
	clear(p.aw)
	p.aw.set(int(p.id))
	clear(p.remoteRead)
	if p.section != NCS {
		s.actCount--
		if len(p.stats) > 0 {
			p.stats[len(p.stats)-1].Crashed = true
		}
	}
	p.section = NCS
	p.crashed = true
	p.crashes++
	ev := s.recordBare(p, Event{Kind: EvCrash})
	s.exec.Schedule = appendLog(s.exec.Schedule, Decision{P: id, Crash: true})
	return ev, nil
}

// applyRecover executes the Recover transition of a crashed process; the
// caller then starts a new program goroutine, which re-runs the interrupted
// passage from the top (recovery acts as the Enter of the retried passage,
// so no separate Enter event is recorded).
func (s *Simulator) applyRecover(p *Proc) {
	p.crashed = false
	p.section = Entry
	p.recovering = true
	p.stats = append(p.stats, PassageStats{})
	s.actCount++
	s.record(p, Event{Kind: EvRecover})
}

// Crashed reports whether process id is currently crashed (awaiting its
// Recover transition).
func (s *Simulator) Crashed(id ProcID) bool { return s.procs[id].crashed }

// Crashes returns how many times process id has crashed.
func (s *Simulator) Crashes(id ProcID) int { return s.procs[id].crashes }

// TotalCrashes returns the number of crash events over all processes.
func (s *Simulator) TotalCrashes() int {
	n := 0
	for _, p := range s.procs {
		n += p.crashes
	}
	return n
}

// receivePost blocks until p's program goroutine posts its next operation,
// which it has already published, or reports completion. Unless it reported
// completion, the goroutine then parks on its grant. A panic the goroutine
// met in simulator code while running ahead is re-raised here, on the
// driving goroutine, where Step would have raised it.
func (s *Simulator) receivePost(p *Proc) {
	op := <-p.post
	if r := p.fault; r != nil {
		p.fault = nil
		p.done = true
		panic(r)
	}
	if op.Kind == OpDone {
		p.done = true
	} else {
		p.parked = true
	}
}

// publish makes op, which p's program goroutine has just issued, p's
// pending operation. The goroutine calls it holding the turn, before it
// runs ahead or posts op.
func (s *Simulator) publish(p *Proc, op Op) {
	p.pending = op
	if op.Kind == OpCS {
		s.checkExclusion(p.id)
	}
}

// checkExclusion looks for another process whose CS event is also enabled,
// which is the paper's definition of a mutual-exclusion violation.
func (s *Simulator) checkExclusion(id ProcID) {
	if s.violation != nil || s.cfg.AllowConcurrentCS {
		return
	}
	for _, q := range s.procs {
		if q.id == id || !q.started || q.done {
			continue
		}
		if q.pending.Kind == OpCS {
			s.violation = &Violation{P: q.id, Q: id, Seq: len(s.exec.Events)}
			return
		}
	}
}

// procBody is the harness wrapper that runs the program for each passage and
// brackets it with the Exit transition. The first passage's Enter (or, after
// a crash, the Recover standing in for it) is granted by Step before the
// goroutine starts; subsequent passages request their own Enter. The
// simulator is always waiting in receivePost while the goroutine runs, so
// its posts, OpDone included, never block for long.
func (s *Simulator) procBody(p *Proc, startPass int) {
	defer s.wg.Done()
	normal := false
	defer func() {
		if normal {
			return
		}
		r := recover()
		switch {
		case r == nil:
			// runtime.Goexit on a retire grant: nothing to do.
		case p.inSim:
			// Simulator code panicked while the goroutine ran ahead: the
			// driving goroutine re-raises it (receivePost).
			p.fault = r
			p.post <- Op{Kind: OpDone}
		default:
			s.postPanic(p, fmt.Sprint(r))
		}
	}()
	for pass := startPass; pass < s.cfg.Passages; pass++ {
		if pass > startPass {
			p.request(Op{Kind: OpEnter})
		}
		s.prog(p)
		p.request(Op{Kind: OpExit})
	}
	normal = true
	p.post <- Op{Kind: OpDone}
}

// postPanic converts a program panic into an OpDone post so the simulator
// does not deadlock; the panic text is surfaced via ProgramPanic.
func (s *Simulator) postPanic(p *Proc, msg string) {
	// Exactly one program goroutine runs at a time (the simulator blocks in
	// receivePost until it posts), so this write is ordered before the
	// simulator's reads by the channel send below.
	s.panicErr[p.id] = msg
	p.post <- Op{Kind: OpDone}
}

// ProgramPanic returns the panic message of process id's program, if it
// panicked.
func (s *Simulator) ProgramPanic(id ProcID) (string, bool) {
	msg, ok := s.panicErr[id]
	return msg, ok
}

// apply executes a program-issued operation, records its event and returns
// the result to deliver.
func (s *Simulator) apply(p *Proc, op Op) (opResult, error) {
	s.growVarState()
	switch op.Kind {
	case OpEnter:
		return opResult{}, s.applyEnter(p)
	case OpRead:
		return s.applyRead(p, op.Var), nil
	case OpWriteIssue:
		p.buf.push(op.Var, op.Val, p.aw)
		s.record(p, Event{Kind: EvWriteIssue, Var: op.Var, Val: op.Val, Remote: s.remote(p.id, op.Var)})
		return opResult{}, nil
	case OpBeginFence:
		p.mode = ModeWrite
		s.record(p, Event{Kind: EvBeginFence})
		return opResult{}, nil
	case OpEndFence:
		if p.mode != ModeWrite {
			return opResult{}, &ProgramError{P: p.id, Reason: "EndFence outside fence"}
		}
		if !p.buf.empty() {
			return opResult{}, &ProgramError{P: p.id, Reason: "EndFence with non-empty buffer"}
		}
		p.mode = ModeRead
		p.fences++
		s.record(p, Event{Kind: EvEndFence, Fence: true})
		return opResult{}, nil
	case OpCAS:
		return s.applyCAS(p, op), nil
	case OpCS:
		if p.section != Entry {
			return opResult{}, &ProgramError{P: p.id, Reason: "CS outside entry section"}
		}
		p.section = Exit
		s.record(p, Event{Kind: EvCS})
		return opResult{}, nil
	case OpExit:
		// A recovery attempt may legitimately exit without re-executing the
		// CS: the crash can land after the critical section of the
		// interrupted passage, in which case recovery only rolls the exit
		// protocol forward (RME semantics).
		if p.section != Exit && !p.recovering {
			return opResult{}, &ProgramError{P: p.id, Reason: "Exit without CS"}
		}
		p.section = NCS
		s.record(p, Event{Kind: EvExit})
		if len(p.stats) > 0 {
			p.stats[len(p.stats)-1].Complete = true
		}
		p.passage++
		s.actCount--
		s.finished[p.id] = true
		return opResult{}, nil
	default:
		return opResult{}, &ProgramError{P: p.id, Reason: "unexpected op " + op.Kind.String()}
	}
}

func (s *Simulator) applyEnter(p *Proc) error {
	if p.section != NCS {
		return &ProgramError{P: p.id, Reason: "Enter outside non-critical section"}
	}
	p.section = Entry
	p.recovering = false
	p.stats = append(p.stats, PassageStats{})
	s.actCount++
	s.record(p, Event{Kind: EvEnter})
	return nil
}

func (s *Simulator) applyRead(p *Proc, v *Var) opResult {
	if x, ok := p.buf.lookup(v); ok {
		s.record(p, Event{Kind: EvRead, Var: v, Val: x, FromBuffer: true, Remote: s.remote(p.id, v)})
		return opResult{val: x}
	}
	x := s.mem.load(v)
	remote := s.remote(p.id, v)
	crit := remote && !p.remoteRead.has(v.index)
	if remote {
		p.remoteRead.set(v.index)
	}
	p.aw.or(s.varAW[v.index])
	s.accessed[v.index].set(int(p.id))
	s.record(p, Event{Kind: EvRead, Var: v, Val: x, Remote: remote, Access: true, Critical: crit})
	return opResult{val: x}
}

func (s *Simulator) applyCAS(p *Proc, op Op) opResult {
	v := op.Var
	cur := s.mem.load(v)
	ok := cur == op.Old
	remote := s.remote(p.id, v)
	crit := remote && !p.remoteRead.has(v.index)
	if remote {
		p.remoteRead.set(v.index)
	}
	p.aw.or(s.varAW[v.index])
	if ok {
		if s.lastWriter[v.index] != int(p.id) {
			crit = true
		}
		s.mem.store(v, op.Val)
		s.lastWriter[v.index] = int(p.id)
		if s.varAW[v.index] == nil {
			s.varAW[v.index] = newBitset(s.cfg.N)
		}
		copy(s.varAW[v.index], p.aw)
	}
	s.accessed[v.index].set(int(p.id))
	s.record(p, Event{
		Kind: EvCAS, Var: v, Val: op.Val, Old: op.Old, CASOK: ok,
		Remote: remote, Access: true, Critical: crit, Fence: true,
	})
	return opResult{val: cur, ok: ok}
}

func (s *Simulator) applyCommit(p *Proc) Event {
	return s.applyCommitted(p, p.buf.pop())
}

// applyCommitted makes an already-dequeued buffered write visible. The
// buffer no longer holds the write, so its awareness snapshot becomes the
// variable's carried awareness without a copy.
func (s *Simulator) applyCommitted(p *Proc, w bufferedWrite) Event {
	prev := s.lastWriter[w.v.index]
	crit := prev != int(p.id)
	s.mem.store(w.v, w.x)
	s.lastWriter[w.v.index] = int(p.id)
	w.aw.set(int(p.id))
	s.varAW[w.v.index] = w.aw
	s.accessed[w.v.index].set(int(p.id))
	return s.record(p, Event{Kind: EvWriteCommit, Var: w.v, Val: w.x, Remote: s.remote(p.id, w.v), Access: true, Critical: crit})
}

// recordBare finalizes and appends an event without charging it to the
// process's passage statistics (crash events are the adversary's doing, not
// steps the process executed).
func (s *Simulator) recordBare(p *Proc, ev Event) Event {
	ev.Seq = len(s.exec.Events)
	ev.P = p.id
	ev.Passage = p.passage
	s.exec.Events = appendLog(s.exec.Events, ev)
	if s.sink != nil {
		s.sink.Emit(toSimEvent(ev))
	}
	for _, fn := range s.observers {
		fn(ev)
	}
	return ev
}

// record finalizes and appends an event, updating per-passage statistics.
func (s *Simulator) record(p *Proc, ev Event) Event {
	ev.Seq = len(s.exec.Events)
	ev.P = p.id
	ev.Passage = p.passage
	s.exec.Events = appendLog(s.exec.Events, ev)
	if len(p.stats) > 0 {
		st := &p.stats[len(p.stats)-1]
		st.Events++
		if ev.Critical {
			st.Critical++
		}
		if ev.Fence {
			st.Fences++
		}
	}
	if s.sink != nil {
		s.sink.Emit(toSimEvent(ev))
	}
	for _, fn := range s.observers {
		fn(ev)
	}
	return ev
}

// Status returns the section process id is in.
func (s *Simulator) Status(id ProcID) Section { return s.procs[id].section }

// ModeOf returns whether process id is between fences (read) or executing a
// fence (write).
func (s *Simulator) ModeOf(id ProcID) Mode { return s.procs[id].mode }

// Awareness returns the awareness set AW(id, E) in ascending order.
func (s *Simulator) Awareness(id ProcID) []ProcID { return s.procs[id].aw.members() }

// AwareOf reports whether process id is aware of q.
func (s *Simulator) AwareOf(id, q ProcID) bool { return s.procs[id].aw.has(int(q)) }

// FencesCompleted returns the number of EndFence events process id has
// executed over the whole run.
func (s *Simulator) FencesCompleted(id ProcID) int { return s.procs[id].fences }

// Stats returns per-passage statistics for process id. The last entry may be
// an in-progress passage.
func (s *Simulator) Stats(id ProcID) []PassageStats {
	out := make([]PassageStats, len(s.procs[id].stats))
	copy(out, s.procs[id].stats)
	return out
}

// CurrentStats returns statistics for the current (or last) passage of
// process id, or a zero value if it has not started.
func (s *Simulator) CurrentStats(id ProcID) PassageStats {
	st := s.procs[id].stats
	if len(st) == 0 {
		return PassageStats{}
	}
	return st[len(st)-1]
}

// LastWriter returns the last process to commit a write to v, or false if no
// process has (the paper's writer(v, E) = ⊥).
func (s *Simulator) LastWriter(v *Var) (ProcID, bool) {
	w := s.lastWriter[v.index]
	if w < 0 {
		return 0, false
	}
	return ProcID(w), true
}

// AccessedBy returns, in ascending order, the processes that accessed v
// (committed a write to it or read it other than from their own buffer).
func (s *Simulator) AccessedBy(v *Var) []ProcID { return s.accessed[v.index].members() }

// HasRemotelyRead reports whether process id has performed a remote read of
// v at some point in the execution.
func (s *Simulator) HasRemotelyRead(id ProcID, v *Var) bool {
	return s.procs[id].remoteRead.has(v.index)
}

// Value returns the committed value of v.
func (s *Simulator) Value(v *Var) uint64 { return s.mem.load(v) }

// BufferSize returns the number of writes buffered by process id.
func (s *Simulator) BufferSize(id ProcID) int { return s.procs[id].buf.size() }

// BufferLookup returns process id's pending buffered write to v, if any.
func (s *Simulator) BufferLookup(id ProcID, v *Var) (uint64, bool) {
	return s.procs[id].buf.lookup(v)
}

// Started reports whether process id has executed its first Enter event.
func (s *Simulator) Started(id ProcID) bool { return s.procs[id].started }

// Done reports whether process id's program has ended: it completed all
// its passages, or it panicked (see ProgramPanic).
func (s *Simulator) Done(id ProcID) bool { return s.procs[id].done }

// Completed reports whether every process completed all its passages: every
// program has ended, and none of them panicked. It is the Completed of a
// RunResult.
func (s *Simulator) Completed() bool { return s.allDone() && len(s.panicErr) == 0 }

// Active returns Act(E): the processes that have started a passage and not
// yet completed it, in ascending order.
func (s *Simulator) Active() []ProcID {
	out := make([]ProcID, 0, s.actCount)
	for _, p := range s.procs {
		if p.section != NCS {
			out = append(out, p.id)
		}
	}
	return out
}

// NumActive returns |Act(E)| without allocating.
func (s *Simulator) NumActive() int { return s.actCount }

// Finished returns Fin(E): the processes that have completed at least one
// passage, in ascending order.
func (s *Simulator) Finished() []ProcID {
	out := make([]ProcID, 0, len(s.finished))
	for id := range s.finished {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumFinished returns |Fin(E)|.
func (s *Simulator) NumFinished() int { return len(s.finished) }

// Replay reconstructs the execution with the banned processes erased: it
// builds a fresh simulator and re-applies every scheduling decision of
// processes outside the banned set. By the invisible-set properties
// (Definition 4), retained processes observe identical values, so the result
// is the paper's E^-Y; VerifyErasure checks this.
func (s *Simulator) Replay(banned map[ProcID]bool) (*Simulator, error) {
	return s.ReplayPrefix(banned, len(s.exec.Schedule))
}

// ReplayPrefix is Replay restricted to the first upTo scheduling decisions,
// reconstructing an erased prefix of the execution.
func (s *Simulator) ReplayPrefix(banned map[ProcID]bool, upTo int) (*Simulator, error) {
	if upTo < 0 || upTo > len(s.exec.Schedule) {
		return nil, fmt.Errorf("tso: replay prefix %d out of range [0,%d]", upTo, len(s.exec.Schedule))
	}
	// Replays reconstruct an already-traced prefix: run them without the
	// sink so events are not emitted twice (use EmitExecution to trace a
	// reconstructed execution explicitly).
	cfg := s.cfg
	cfg.Sink = nil
	ns, err := NewSimulator(cfg, s.build)
	if err != nil {
		return nil, fmt.Errorf("tso: replay build: %w", err)
	}
	// Each decision records exactly one event, so upTo bounds both logs.
	ns.exec.Events = make([]Event, 0, upTo)
	ns.exec.Schedule = make([]Decision, 0, upTo)
	sched := s.exec.Schedule[:upTo]
	for i := 0; i < len(sched); {
		d := sched[i]
		if banned[d.P] {
			i++
			continue
		}
		// A maximal run of plain steps by one process is one StepWhile, which
		// the process runs through on its own goroutine.
		n, k := 0, 1
		var err error
		if d == (Decision{P: d.P}) {
			for i+k < len(sched) && sched[i+k] == d {
				k++
			}
			n, err = ns.StepWhile(d.P, k, nil)
			if err == nil && n < k {
				// The program ended before the run did; stepping it again
				// reports why.
				_, err = ns.Step(d.P)
			}
		} else {
			_, err = ns.Apply(d)
		}
		if err != nil {
			ns.Kill()
			return nil, fmt.Errorf("tso: replay decision %d (p%d): %w", i+n, d.P, err)
		}
		i += k
	}
	return ns, nil
}

// Apply applies one scheduling decision: a crash, a commit (of the oldest
// buffered write, or of the write to variable VarPlus1-1, which only PSO
// allows out of issue order) or a step. It is how every recorded schedule
// is re-applied; a decision naming a variable the memory does not have is
// an error.
func (s *Simulator) Apply(d Decision) (Event, error) {
	switch {
	case d.Crash:
		return s.Crash(d.P)
	case d.Commit && d.VarPlus1 != 0:
		if d.VarPlus1 < 1 || d.VarPlus1 > len(s.mem.vars) {
			return Event{}, fmt.Errorf("tso: commit of variable %d out of range [0,%d)", d.VarPlus1-1, len(s.mem.vars))
		}
		return s.CommitVar(d.P, s.mem.vars[d.VarPlus1-1])
	case d.Commit:
		return s.Commit(d.P)
	default:
		return s.Step(d.P)
	}
}

// Minimize shrinks a schedule by delta debugging while reproduces holds: it
// trims the suffix by binary search on the prefix length, then drops single
// decisions greedily until a fixed point. The result is 1-minimal: removing
// any one remaining decision loses the property. An error from reproduces
// means the candidate does not apply, which counts as not reproducing,
// except for the whole schedule, where it is returned. Cancelling ctx
// aborts the search between candidates.
func Minimize(ctx context.Context, sched []Decision, reproduces func([]Decision) (bool, error)) ([]Decision, error) {
	cur := append([]Decision(nil), sched...)
	ok, err := reproduces(cur)
	if err != nil {
		return nil, fmt.Errorf("tso: minimize: schedule does not apply: %w", err)
	}
	if !ok {
		return nil, errors.New("tso: minimize: schedule does not reproduce")
	}
	holds := func(cand []Decision) bool {
		ok, err := reproduces(cand)
		return err == nil && ok
	}
	lo, hi := 0, len(cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if holds(cur[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur = cur[:lo]
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand := make([]Decision, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if holds(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur, nil
}

// VerifyErasure checks that the replayed execution is the erasure of the
// original: for every process outside banned, its event subsequence must be
// identical (kind, variable, and value) in both executions. A mismatch means
// the erased processes were visible, i.e. the banned set was not an
// invisible set.
func VerifyErasure(orig, replayed *Execution, banned map[ProcID]bool) error {
	byProc := make(map[ProcID][]Event)
	for _, e := range replayed.Events {
		if banned[e.P] {
			return fmt.Errorf("tso: erased process p%d has events in replay", e.P)
		}
		byProc[e.P] = append(byProc[e.P], e)
	}
	idx := make(map[ProcID]int)
	for _, e := range orig.Events {
		if banned[e.P] {
			continue
		}
		evs := byProc[e.P]
		i := idx[e.P]
		if i >= len(evs) {
			return fmt.Errorf("tso: p%d missing event %d (%s) in replay", e.P, i, e)
		}
		r := evs[i]
		if r.Kind != e.Kind || !sameVar(r.Var, e.Var) || r.Val != e.Val || r.FromBuffer != e.FromBuffer {
			return fmt.Errorf("tso: p%d event %d diverged: orig %s, replay %s", e.P, i, e, r)
		}
		idx[e.P]++
	}
	for p, evs := range byProc {
		if idx[p] != len(evs) {
			return fmt.Errorf("tso: p%d has %d extra events in replay", p, len(evs)-idx[p])
		}
	}
	return nil
}

func sameVar(a, b *Var) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.index == b.index
}

// Fork returns an independent simulator in the same state, reconstructed by
// replaying the full schedule. The receiver is left untouched.
func (s *Simulator) Fork() (*Simulator, error) {
	return s.Replay(nil)
}
