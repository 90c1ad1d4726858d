package vmprog

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"priceadaptive/internal/tso"
)

// bufEnt is one buffered write in the fast engine.
type bufEnt struct {
	v int
	x uint64
}

// PState is the complete state of one process: flat, comparable-by-content,
// and cheap to clone. A started, unfinished process is always parked at an
// event instruction (its local register/jump instructions have already been
// applied), mirroring how the goroutine engine parks programs at their next
// posted operation.
type PState struct {
	PC      int
	Regs    [NumRegs]uint64
	Buf     []bufEnt
	Fencing bool
	Started bool
	Done    bool
	InExit  bool // CS executed, Exit pending at OpHalt
	// Crashed marks a crash-stopped process awaiting its Recover
	// transition: buffer and registers discarded, PC parked at the
	// program's recover entry. The next Step executes the recovery.
	Crashed bool
	// CrashCount is how many times this process has crashed, bounding
	// per-process crash budgets during crash-enabled exploration.
	CrashCount int
}

// BufLen returns the number of buffered, uncommitted writes.
func (p *PState) BufLen() int { return len(p.Buf) }

// BufVar returns the variable index of the i-th buffered write (0 is the
// oldest, the only write TSO may commit next).
func (p *PState) BufVar(i int) int { return p.Buf[i].v }

// BufVal returns the pending value of the i-th buffered write.
func (p *PState) BufVal(i int) uint64 { return p.Buf[i].x }

// State is a full machine state of the fast engine.
type State struct {
	Mem   []uint64
	Procs []PState
	// Crashes is the total number of crash transitions taken to reach
	// this state (the sum of the per-process CrashCounts), bounding the
	// total crash budget during crash-enabled exploration.
	Crashes int
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	ns := &State{Mem: slices.Clone(s.Mem), Procs: slices.Clone(s.Procs), Crashes: s.Crashes}
	for i := range ns.Procs {
		ns.Procs[i].Buf = slices.Clone(ns.Procs[i].Buf)
	}
	return ns
}

// FactsVersion is the current PruneFacts schema version. The engine rejects
// facts carrying any other version with ErrStaleFacts: facts are cached
// (jobs artifact store, padlint) and a stale cached schema silently
// reinterpreted would be an unsoundness, not a degradation.
const FactsVersion = 2

// ErrStaleFacts reports pruning facts produced under a different
// PruneFacts schema version than the engine implements.
var ErrStaleFacts = errors.New("vmprog: pruning facts version mismatch")

// SymForm is an affine value map under a process permutation pi: a value x
// with (x-A)/B in [0,n) denotes "process (x-A)/B" and maps to
// A + B*pi((x-A)/B); every other value is a fixed point. B is +1 or -1 for
// a real form; B == 0 is the identity sentinel (the value carries no
// process identity). The same shape describes register values, variable
// contents, and array-cell indices.
type SymForm struct {
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// Mapped reports whether the form denotes a real (non-identity) map.
func (f SymForm) Mapped() bool { return f.B != 0 }

// valid reports whether B is one of the three values a form may carry.
func (f SymForm) valid() bool { return f.B >= -1 && f.B <= 1 }

// apply maps x under the permutation perm (perm[i] = image of process i).
func (f SymForm) apply(x uint64, perm []int) uint64 {
	if f.B == 0 {
		return x
	}
	m := (int64(x) - f.A) * f.B // B is +-1, so *B == /B
	if m < 0 || m >= int64(len(perm)) {
		return x
	}
	return uint64(f.A + f.B*int64(perm[m]))
}

// SymmetryFacts certify that the program is invariant under every
// permutation of process ids, together with the data needed to apply a
// permutation to a state: per-(pc,register), per-variable-value and
// per-variable-cell affine forms. They are only produced by the static
// scalarset discipline in internal/analysis/por, which fails closed: any
// instruction it cannot type as permutation-invariant voids the facts.
type SymmetryFacts struct {
	// RegForms[pc][r] transforms register r of a process parked at pc.
	RegForms [][]SymForm `json:"reg_forms"`
	// ValForms[v] transforms the value held by variable v (and by buffered
	// writes to v). Uniform across an array extent.
	ValForms []SymForm `json:"val_forms"`
	// CellForms[v] maps the *index* v to the cell that receives v's
	// content under the permutation (identity for scalars and
	// data-indexed arrays).
	CellForms []SymForm `json:"cell_forms"`
}

// PruneFacts are static facts about a program, computed by the analyzer in
// internal/analysis/por, that let the model checker merge equivalent
// interleavings. Every field is a *guarantee*: a wrong fact would make the
// exploration unsound, so facts are only produced by dataflow analyses
// whose soundness the differential tests in internal/check verify. Facts
// are instantiated for a concrete process count N (future footprints are
// per-process, symmetry is over S_N) and are JSON-serializable so they can
// be cached per program hash x n in the jobs artifact store.
type PruneFacts struct {
	// Version is the schema version (FactsVersion); UsePruning rejects
	// anything else with ErrStaleFacts.
	Version int `json:"version"`
	// N is the process count the facts were instantiated for.
	N int `json:"n"`
	// EmptyBufAt[pc] reports that the write buffer is provably empty
	// whenever a process is parked at pc: no path from the program's entry
	// to pc carries a write that is not followed by a fence or CAS.
	EmptyBufAt []bool `json:"empty_buf_at"`
	// VisibleAt[pc] reports that stepping a process parked at pc may
	// change the Violated predicate: the instruction is the CS itself, or
	// its continuation can park at the CS. Invisible steps are ample-set
	// candidates (condition C2).
	VisibleAt []bool `json:"visible_at"`
	// VisibleStart reports that starting a process can park it at the CS.
	VisibleStart bool `json:"visible_start"`
	// FutureReads[id*len(code)+pc] is a bitset (64 vars per word) of every
	// variable process id may still read at or after pc; FutureWrites the
	// same for writes (a CAS contributes to both). Indexed accesses whose
	// index register is statically affine in the process id are
	// instantiated exactly; anything else widens to the whole array
	// extent. Used for the static independence relation (condition C1).
	FutureReads  [][]uint64 `json:"future_reads"`
	FutureWrites [][]uint64 `json:"future_writes"`
	// LiveRegs[pc] is a bitmask of the registers live-in at pc (bit r set:
	// some path from pc uses register r before redefining it). Dead
	// registers are zeroed during canonicalization: states differing only
	// in junk a process will never read again are bisimilar.
	LiveRegs []uint16 `json:"live_regs"`
	// Symmetry is non-nil when the program is statically proven
	// permutation-invariant. It must only be applied together with
	// LiveRegs (dead registers may hold untransformable junk).
	Symmetry *SymmetryFacts `json:"symmetry,omitempty"`
}

// Engine executes a VM program under the TSO (or PSO) operational semantics
// with explicit, clonable state.
type Engine struct {
	prog  *Program
	n     int
	ord   tso.Ordering
	facts *PruneFacts
	red   *reducer
}

// NewEngineOrdering builds an engine for n processes under the given memory
// ordering (tso.TSO or tso.PSO; the zero Ordering defaults to TSO).
func NewEngineOrdering(p *Program, n int, ord tso.Ordering) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("vmprog: n must be positive, got %d", n)
	}
	switch ord {
	case 0:
		ord = tso.TSO
	case tso.TSO, tso.PSO:
	default:
		return nil, fmt.Errorf("vmprog: unknown memory ordering %d", int(ord))
	}
	return &Engine{prog: p, n: n, ord: ord}, nil
}

// Ordering returns the engine's memory-ordering model.
func (e *Engine) Ordering() tso.Ordering { return e.ord }

// UsePruning installs static pruning facts (see PruneFacts). Passing nil
// disables pruning. The facts must describe this engine's program at this
// engine's process count, and must carry the current schema version:
// version mismatches return ErrStaleFacts (wrapped) instead of being
// silently ignored, because stale cached facts reinterpreted under a new
// schema would corrupt the exploration rather than merely slow it down.
// For the same reason symmetry facts whose forms do not describe a
// permutation of the variables are an error (see newSymGroup).
func (e *Engine) UsePruning(f *PruneFacts) error {
	if f == nil {
		e.facts = nil
		e.red = nil
		return nil
	}
	if f.Version != FactsVersion {
		return fmt.Errorf("%w: facts version %d, engine implements %d",
			ErrStaleFacts, f.Version, FactsVersion)
	}
	if f.N != e.n {
		return fmt.Errorf("vmprog: pruning facts instantiated for n=%d, engine has n=%d", f.N, e.n)
	}
	nc := len(e.prog.Code)
	if len(f.EmptyBufAt) != nc || len(f.VisibleAt) != nc || len(f.LiveRegs) != nc {
		return fmt.Errorf("vmprog: pruning facts cover %d/%d/%d instructions, program has %d",
			len(f.EmptyBufAt), len(f.VisibleAt), len(f.LiveRegs), nc)
	}
	if len(f.FutureReads) != e.n*nc || len(f.FutureWrites) != e.n*nc {
		return fmt.Errorf("vmprog: footprint tables cover %d/%d points, want %d",
			len(f.FutureReads), len(f.FutureWrites), e.n*nc)
	}
	var g *symGroup
	if s := f.Symmetry; s != nil {
		if len(s.RegForms) != nc || len(s.ValForms) != len(e.prog.Vars) || len(s.CellForms) != len(e.prog.Vars) {
			return fmt.Errorf("vmprog: symmetry facts shaped %d/%d/%d, want %d/%d/%d",
				len(s.RegForms), len(s.ValForms), len(s.CellForms), nc, len(e.prog.Vars), len(e.prog.Vars))
		}
		for pc := range s.RegForms {
			if len(s.RegForms[pc]) != NumRegs {
				return fmt.Errorf("vmprog: symmetry reg forms at pc %d cover %d registers, want %d",
					pc, len(s.RegForms[pc]), NumRegs)
			}
		}
		var err error
		if g, err = newSymGroup(e.prog, e.n, f); err != nil {
			return err
		}
	}
	e.facts = f
	e.red = newReducer(e, f, g)
	return nil
}

// Program returns the program the engine executes.
func (e *Engine) Program() *Program { return e.prog }

// NumProcs returns the engine's process count.
func (e *Engine) NumProcs() int { return e.n }

// Initial returns the initial state: memory zeroed, no process started.
func (e *Engine) Initial() *State {
	return &State{
		Mem:   make([]uint64, len(e.prog.Vars)),
		Procs: make([]PState, e.n),
	}
}

// errInvalidDecision reports a decision that is not enabled in the state.
var errInvalidDecision = errors.New("vmprog: decision not enabled")

// advance executes register and control-flow instructions until the process
// parks at an event instruction or OpHalt. Local instructions are free in
// the memory model, exactly as Go code between two Proc calls runs inside
// the program goroutine on the goroutine engine.
func (e *Engine) advance(p *PState, id int) error {
	for {
		in := e.prog.Code[p.PC]
		switch in.Op {
		case OpConst:
			p.Regs[in.A] = in.Imm
		case OpMe:
			p.Regs[in.A] = uint64(id)
		case OpProcs:
			p.Regs[in.A] = uint64(e.n)
		case OpAdd:
			p.Regs[in.A] = p.Regs[in.B] + p.Regs[in.C]
		case OpSub:
			p.Regs[in.A] = p.Regs[in.B] - p.Regs[in.C]
		case OpJump:
			p.PC = in.Target
			continue
		case OpJumpIfEq:
			if p.Regs[in.A] == p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		case OpJumpIfNe:
			if p.Regs[in.A] != p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		case OpJumpIfLt:
			if p.Regs[in.A] < p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		default:
			// Event instruction or Halt: park here.
			return nil
		}
		p.PC++
	}
}

// bufLookup returns the pending buffered write to variable vi, if any.
func bufLookup(p *PState, vi int) (uint64, bool) {
	for i := range p.Buf {
		if p.Buf[i].v == vi {
			return p.Buf[i].x, true
		}
	}
	return 0, false
}

// bufPush coalesces a write into the buffer (TSO: one entry per variable).
func bufPush(p *PState, vi int, x uint64) {
	for i := range p.Buf {
		if p.Buf[i].v == vi {
			p.Buf[i].x = x
			return
		}
	}
	p.Buf = append(p.Buf, bufEnt{v: vi, x: x})
}

// commitAt makes the i-th buffered write visible.
func commitAt(s *State, p *PState, i int) {
	w := p.Buf[i]
	s.Mem[w.v] = w.x
	p.Buf = append(p.Buf[:i], p.Buf[i+1:]...)
}

// Step lets process id execute its next event, mirroring
// tso.Simulator.Step: Enter for an unstarted process, a commit while
// fencing (or draining for a CAS) with a non-empty buffer, otherwise the
// parked event instruction.
func (e *Engine) Step(s *State, id int) error {
	if id < 0 || id >= e.n {
		return errInvalidDecision
	}
	p := &s.Procs[id]
	if p.Done {
		return errInvalidDecision
	}
	if !p.Started {
		p.Started = true
		return e.advance(p, id)
	}
	if p.Crashed {
		// The Recover transition: the crash already discarded the volatile
		// state and parked the PC at the recover entry; recovery resumes
		// execution there, mirroring tso.Simulator's applyRecover.
		p.Crashed = false
		return e.advance(p, id)
	}
	if p.Fencing {
		if len(p.Buf) > 0 {
			commitAt(s, p, 0)
			return nil
		}
		// EndFence.
		p.Fencing = false
		p.PC++
		return e.advance(p, id)
	}
	in := e.prog.Code[p.PC]
	switch in.Op {
	case OpRead:
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		if x, ok := bufLookup(p, vi); ok {
			p.Regs[in.A] = x
		} else {
			p.Regs[in.A] = s.Mem[vi]
		}
		p.PC++
		return e.advance(p, id)
	case OpWrite:
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		bufPush(p, vi, p.Regs[in.A])
		p.PC++
		return e.advance(p, id)
	case OpFence:
		p.Fencing = true
		return nil
	case OpCAS:
		if len(p.Buf) > 0 {
			// Serializing: drain the buffer first, one commit per step.
			commitAt(s, p, 0)
			return nil
		}
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		observed := s.Mem[vi]
		if observed == p.Regs[in.B] {
			s.Mem[vi] = p.Regs[in.C]
		}
		p.Regs[in.A] = observed
		p.PC++
		return e.advance(p, id)
	case OpCS:
		p.InExit = true
		p.PC++
		return e.advance(p, id)
	case OpHalt:
		p.Done = true
		return nil
	default:
		return fmt.Errorf("vmprog: parked at non-event instruction %d", int(in.Op))
	}
}

// Commit makes a buffered write of process id visible. varIdx selects the
// variable (PSO); pass -1 for the oldest write (the only legal choice under
// TSO). Like tso.Simulator.Commit it is also legal while the process is
// executing a fence (the adversary committing on the process's behalf).
func (e *Engine) Commit(s *State, id int, varIdx int) error {
	p := &s.Procs[id]
	if len(p.Buf) == 0 {
		return errInvalidDecision
	}
	if varIdx < 0 || p.Buf[0].v == varIdx {
		commitAt(s, p, 0)
		return nil
	}
	if e.ord != tso.PSO {
		return fmt.Errorf("vmprog: out-of-order commit requires PSO")
	}
	for i := range p.Buf {
		if p.Buf[i].v == varIdx {
			commitAt(s, p, i)
			return nil
		}
	}
	return errInvalidDecision
}

// PendingCS reports whether process id's next event is the CS transition.
// A crashed process has no pending CS: its next transition is the Recover,
// and per the RME setting a crash-stopped process is not in its critical
// section.
func (e *Engine) PendingCS(s *State, id int) bool {
	p := &s.Procs[id]
	if !p.Started || p.Done || p.Fencing || p.Crashed {
		return false
	}
	return e.prog.Code[p.PC].Op == OpCS
}

// Violated reports whether two CS events are simultaneously enabled (the
// paper's exclusion failure).
func (e *Engine) Violated(s *State) bool {
	count := 0
	for id := range s.Procs {
		if e.PendingCS(s, id) {
			count++
		}
	}
	return count >= 2
}

// AllDone reports whether every process completed its passage.
func (e *Engine) AllDone(s *State) bool {
	for i := range s.Procs {
		if !s.Procs[i].Done {
			return false
		}
	}
	return true
}

// Apply executes a tso.Decision on the state, for replaying schedules
// recorded against the goroutine engine. A decision changes only s.Mem,
// s.Procs[d.P] and s.Crashes: the frontier engines' expander builds every
// successor's encoding from its parent's on that invariant.
func (e *Engine) Apply(s *State, d tso.Decision) error {
	if d.Crash {
		return e.Crash(s, int(d.P))
	}
	if d.Commit {
		varIdx := -1
		if d.VarPlus1 > 0 {
			varIdx = d.VarPlus1 - 1
		}
		return e.Commit(s, int(d.P), varIdx)
	}
	return e.Step(s, int(d.P))
}

// Hash fingerprints a state: the 64-bit hash of its flat encoding, the
// same fingerprint the search engine computes for every successor. Equal
// states hash equal. Distinct states collide with probability about 2^-64
// per pair, and the seen-sets of Check and CheckRecoverable key on this
// fingerprint alone (hash compaction): a collision would merge two states
// and could hide the subtree behind one of them.
// Over a search of m states the chance that any collision occurs at all is
// about m^2/2^65. It is safe for concurrent use.
func (e *Engine) Hash(s *State) uint64 {
	// Encodings of up to 128 words are built on the stack; longer ones
	// spill to the heap.
	var buf [128]uint64
	return hashWords(encode(buf[:0], s))
}

// CheckResult summarizes an exhaustive exploration by the fast engine.
type CheckResult struct {
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of decisions applied.
	Transitions int
	// Complete reports whether the full reachable state space was
	// explored.
	Complete bool
	// Violation reports whether an exclusion violation was found.
	Violation bool
	// Schedule reproduces the violation (also applicable to the goroutine
	// engine via the same decisions).
	Schedule []tso.Decision
	// AmpleSteps counts states where the reduction restricted expansion to
	// a single process's transitions (0 without UsePruning).
	AmpleSteps int
	// Probabilistic is always false: every exploration keeps a
	// fingerprint per state. It remains for callers that still read it.
	Probabilistic bool
	shardStats
}

// decisions appends the enabled scheduling decisions in a state to out.
func (e *Engine) decisions(s *State, out []tso.Decision) []tso.Decision {
	for id := range s.Procs {
		out = e.procDecisions(s, id, out)
	}
	return out
}

// procDecisions appends process id's enabled decisions to out.
func (e *Engine) procDecisions(s *State, id int, out []tso.Decision) []tso.Decision {
	p := &s.Procs[id]
	if !p.Done {
		out = append(out, tso.Decision{P: tso.ProcID(id)})
	}
	if len(p.Buf) > 0 && !p.Fencing {
		if e.ord == tso.PSO {
			for _, b := range p.Buf {
				out = append(out, tso.Decision{P: tso.ProcID(id), Commit: true, VarPlus1: b.v + 1})
			}
		} else {
			out = append(out, tso.Decision{P: tso.ProcID(id), Commit: true})
		}
	}
	return out
}

// Minimize shrinks a violating schedule to a 1-minimal reproduction by
// delta debugging (tso.Minimize) on the fast engine, hundreds of times
// faster than check.Minimize because a candidate is a pure state replay.
func (e *Engine) Minimize(ctx context.Context, sched []tso.Decision) ([]tso.Decision, error) {
	return tso.Minimize(ctx, sched, func(cand []tso.Decision) (bool, error) {
		st := e.Initial()
		for _, d := range cand {
			if err := e.Apply(st, d); err != nil {
				return false, err
			}
			if e.Violated(st) {
				return true, nil
			}
		}
		return false, nil
	})
}
