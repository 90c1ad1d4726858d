// Package vmprog represents lock algorithms as small register programs
// instead of opaque Go closures. The same program can then run on two
// engines:
//
//   - the goroutine-based tso.Simulator (via Lock, behind AdaptLock and
//     Adapt), reusing every tool in the repository - schedulers, RMR
//     accounting, the lower-bound construction. Twelve internal/mutex locks
//     are defined this way, as programs of this package;
//   - a fast engine (Engine) whose entire process state (program counter,
//     registers, write buffer) is a flat value that can be cloned in O(1)
//     allocations, giving the model checker true state snapshots: no
//     replay-based backtracking and, because a parked spin loop returns to
//     the same program counter and registers, naturally finite state spaces
//     without the CollapseSpins soundness caveat.
//
// The two engines implement the same TSO/PSO operational semantics; the
// differential tests in this package drive identical schedules through both
// and require identical observable behaviour.
package vmprog

import (
	"fmt"
	"strconv"
)

// OpCode enumerates VM instructions. Local instructions (registers and
// control flow) cost nothing in the memory model: both engines execute them
// as part of reaching the next shared-memory event, exactly as Go code
// between two Proc calls executes inside the program goroutine.
type OpCode int

const (
	// OpConst sets reg[A] = Imm.
	OpConst OpCode = iota + 1
	// OpMe sets reg[A] = the process ID.
	OpMe
	// OpProcs sets reg[A] = N, the number of processes.
	OpProcs
	// OpAdd sets reg[A] = reg[B] + reg[C].
	OpAdd
	// OpSub sets reg[A] = reg[B] - reg[C].
	OpSub
	// OpJump jumps to Target.
	OpJump
	// OpJumpIfEq jumps to Target when reg[A] == reg[B].
	OpJumpIfEq
	// OpJumpIfNe jumps to Target when reg[A] != reg[B].
	OpJumpIfNe
	// OpJumpIfLt jumps to Target when reg[A] < reg[B].
	OpJumpIfLt
	// OpRead is an event: reg[A] = value of the addressed variable.
	OpRead
	// OpWrite is an event: issue a write of reg[A] to the addressed
	// variable (buffered under TSO).
	OpWrite
	// OpFence is an event sequence: BeginFence, commits, EndFence.
	OpFence
	// OpCAS is a serializing event: if the addressed variable holds
	// reg[B], set it to reg[C]; reg[A] receives the observed value. The
	// comparison outcome is reg[A] == reg[B].
	OpCAS
	// OpCS is the critical-section transition event.
	OpCS
	// OpHalt ends the passage (the harness appends the Exit transition).
	OpHalt
)

// NumRegs is the number of registers per process.
const NumRegs = 8

// AdaptivityClass declares how a program's step complexity scales, which
// determines the Theorem 1 fence lower bound the static analyzer holds it
// to: an adaptive algorithm (critical events a function of contention k, not
// N) must admit executions with k-1 fences at contention k.
type AdaptivityClass int

const (
	// ClassUnknown makes no claim; the analyzer only applies the universal
	// (contention-2) bound.
	ClassUnknown AdaptivityClass = iota
	// ClassNonAdaptive declares Ω(N) critical events per passage.
	ClassNonAdaptive
	// ClassAdaptive declares per-passage work that depends on contention
	// only, the class Theorem 1 charges Θ(k) fences.
	ClassAdaptive
)

// String renders the class for reports.
func (c AdaptivityClass) String() string {
	switch c {
	case ClassNonAdaptive:
		return "non-adaptive"
	case ClassAdaptive:
		return "adaptive"
	}
	return "unknown"
}

// Instr is one VM instruction. Variables are addressed as Base + reg[Index]
// into the program's variable table; Index < 0 means no index register.
type Instr struct {
	Op     OpCode `json:"op"`
	A      int    `json:"a,omitempty"`
	B      int    `json:"b,omitempty"`
	C      int    `json:"c,omitempty"`
	Imm    uint64 `json:"imm,omitempty"`
	Base   int    `json:"base,omitempty"`
	Index  int    `json:"index,omitempty"`
	Target int    `json:"target,omitempty"`
}

// Program is a validated VM lock program plus its variable table.
type Program struct {
	Name string `json:"name"`
	// Vars names every shared variable; values index the engines' memory.
	// Arrays declared via Builder.Array are named name[0..n-1]; the static
	// analyzer recovers array extents from this naming convention.
	Vars []string `json:"vars"`
	// Code is the instruction sequence of one passage (entry protocol,
	// one OpCS, exit protocol, OpHalt).
	Code []Instr `json:"code"`
	// Class is the program's declared adaptivity class, consumed by the
	// static analyzer's Theorem 1 checks.
	Class AdaptivityClass `json:"class,omitempty"`
	// Recover is the entry PC of the program's recover section, the
	// recoverable-mutual-exclusion passage a crashed process re-enters
	// through: a crash discards the write buffer and every volatile
	// register, and the recovery transition resumes execution at Recover
	// with a zeroed register file. Zero means no recover section - a
	// crashed process re-runs the passage from the top (PC 0), the
	// pre-RME behaviour. The recover section is ordinary program text: it
	// may jump back into the main passage (e.g. straight to the
	// critical-section path when the process finds it still holds the
	// lock) and shares the single OpCS.
	Recover int `json:"recover,omitempty"`
	// Owned lists the arrays declared by Builder.OwnedArray. Element i of
	// each is local to process i under DSM, as tso.Memory.NewOwnedArray
	// allocates it: AdaptLock allocates it so, and rme.ReplayRMR prices its
	// owner's accesses as local. Ownership changes no transition, only
	// what an access costs.
	Owned []Span `json:"owned,omitempty"`
}

// Span is a run of Len consecutive variables starting at Base.
type Span struct {
	Base int `json:"base"`
	Len  int `json:"len"`
}

// Owner returns the process that variable v is local to under DSM, or -1
// when it is remote to every process.
func (p *Program) Owner(v int) int {
	for _, s := range p.Owned {
		if v >= s.Base && v < s.Base+s.Len {
			return v - s.Base
		}
	}
	return -1
}

// eventOp reports whether an opcode is a shared-memory event.
func eventOp(op OpCode) bool {
	switch op {
	case OpRead, OpWrite, OpFence, OpCAS, OpCS:
		return true
	}
	return false
}

// Validate checks structural well-formedness: register and variable ranges,
// jump targets, exactly the final instruction OpHalt, and at least one OpCS.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("vmprog %s: empty program", p.Name)
	}
	if p.Code[len(p.Code)-1].Op != OpHalt {
		return fmt.Errorf("vmprog %s: program must end with Halt", p.Name)
	}
	cs := 0
	for i, in := range p.Code {
		for _, r := range []int{in.A, in.B, in.C} {
			if r < 0 || r >= NumRegs {
				return fmt.Errorf("vmprog %s: instr %d: register %d out of range", p.Name, i, r)
			}
		}
		switch in.Op {
		case OpRead, OpWrite, OpCAS:
			if in.Base < 0 || in.Base >= len(p.Vars) {
				return fmt.Errorf("vmprog %s: instr %d: variable base %d out of range", p.Name, i, in.Base)
			}
			if in.Index < -1 || in.Index >= NumRegs {
				return fmt.Errorf("vmprog %s: instr %d: index register %d out of range", p.Name, i, in.Index)
			}
		case OpJump, OpJumpIfEq, OpJumpIfNe, OpJumpIfLt:
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("vmprog %s: instr %d: jump target %d out of range", p.Name, i, in.Target)
			}
		case OpCS:
			cs++
		case OpConst, OpMe, OpProcs, OpAdd, OpSub, OpFence, OpHalt:
		default:
			return fmt.Errorf("vmprog %s: instr %d: unknown opcode %d", p.Name, i, int(in.Op))
		}
	}
	if cs != 1 {
		return fmt.Errorf("vmprog %s: program must contain exactly one CS, has %d", p.Name, cs)
	}
	if p.Recover < 0 || p.Recover >= len(p.Code) {
		return fmt.Errorf("vmprog %s: recover entry %d out of range [0,%d)", p.Name, p.Recover, len(p.Code))
	}
	for i, s := range p.Owned {
		if s.Base < 0 || s.Len < 1 || s.Base+s.Len > len(p.Vars) {
			return fmt.Errorf("vmprog %s: owned array %d (base %d, len %d) out of range [0,%d)", p.Name, i, s.Base, s.Len, len(p.Vars))
		}
		for _, t := range p.Owned[:i] {
			if s.Base < t.Base+t.Len && t.Base < s.Base+s.Len {
				return fmt.Errorf("vmprog %s: owned arrays at %d and %d overlap", p.Name, t.Base, s.Base)
			}
		}
	}
	return nil
}

// Addr resolves the variable addressed by an instruction under a given
// register file, exactly as the engines do: Base + reg[Index], erroring
// when the computed index escapes the variable table. It exists for
// tools (the abstract interpreter's witness tracer) that classify engine
// steps without re-implementing the addressing rule.
func (p *Program) Addr(in Instr, regs *[NumRegs]uint64) (int, error) {
	return p.varIndex(in, regs)
}

// varIndex resolves an addressed variable for a given register file. It
// returns an error when the computed index escapes the variable table.
func (p *Program) varIndex(in Instr, regs *[NumRegs]uint64) (int, error) {
	idx := in.Base
	if in.Index >= 0 {
		idx += int(regs[in.Index])
	}
	if idx < 0 || idx >= len(p.Vars) {
		return 0, fmt.Errorf("vmprog %s: variable index %d out of range [0,%d)", p.Name, idx, len(p.Vars))
	}
	return idx, nil
}

// Builder assembles programs with labels and named variables.
type Builder struct {
	name    string
	vars    []string
	code    []Instr
	labels  map[string]int
	fixups  map[int]string
	class   AdaptivityClass
	recover string // label of the recover-section entry, "" for none
	owned   []Span
	err     error
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// Var declares a scalar shared variable and returns its base index.
func (b *Builder) Var(name string) int {
	b.vars = append(b.vars, name)
	return len(b.vars) - 1
}

// Array declares n shared variables name[0..n-1] and returns the base index.
func (b *Builder) Array(name string, n int) int {
	base := len(b.vars)
	for i := 0; i < n; i++ {
		b.vars = append(b.vars, name+"["+strconv.Itoa(i)+"]")
	}
	return base
}

// OwnedArray is Array for an array whose element i is local to process i
// under DSM (see Program.Owned).
func (b *Builder) OwnedArray(name string, n int) int {
	base := b.Array(name, n)
	b.owned = append(b.owned, Span{Base: base, Len: n})
	return base
}

// SetClass declares the program's adaptivity class.
func (b *Builder) SetClass(c AdaptivityClass) { b.class = c }

// SetRecover declares the label at which the program's recover section
// starts (see Program.Recover). The label is resolved at Build time, so it
// may be declared before or after the call.
func (b *Builder) SetRecover(label string) { b.recover = label }

// Label defines a jump label at the current position. Redefining a label is
// a programming bug and fails the Build.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup && b.err == nil {
		b.err = fmt.Errorf("vmprog %s: label %q defined twice", b.name, name)
	}
	b.labels[name] = len(b.code)
}

// emit appends an instruction.
func (b *Builder) emit(in Instr) { b.code = append(b.code, in) }

// Const emits reg[a] = imm.
func (b *Builder) Const(a int, imm uint64) { b.emit(Instr{Op: OpConst, A: a, Imm: imm}) }

// Me emits reg[a] = process ID.
func (b *Builder) Me(a int) { b.emit(Instr{Op: OpMe, A: a}) }

// Procs emits reg[a] = N.
func (b *Builder) Procs(a int) { b.emit(Instr{Op: OpProcs, A: a}) }

// Add emits reg[a] = reg[x] + reg[y].
func (b *Builder) Add(a, x, y int) { b.emit(Instr{Op: OpAdd, A: a, B: x, C: y}) }

// Sub emits reg[a] = reg[x] - reg[y].
func (b *Builder) Sub(a, x, y int) { b.emit(Instr{Op: OpSub, A: a, B: x, C: y}) }

// Read emits reg[a] = vars[base + reg[idx]] (idx < 0 for no index).
func (b *Builder) Read(a, base, idx int) { b.emit(Instr{Op: OpRead, A: a, Base: base, Index: idx}) }

// Write emits a buffered write of reg[a] to vars[base + reg[idx]].
func (b *Builder) Write(base, idx, a int) { b.emit(Instr{Op: OpWrite, A: a, Base: base, Index: idx}) }

// Fence emits a full fence.
func (b *Builder) Fence() { b.emit(Instr{Op: OpFence}) }

// CAS emits reg[a] = CAS(vars[base + reg[idx]], old=reg[x], new=reg[y]).
func (b *Builder) CAS(a, base, idx, x, y int) {
	b.emit(Instr{Op: OpCAS, A: a, Base: base, Index: idx, B: x, C: y})
}

// CS emits the critical-section transition.
func (b *Builder) CS() { b.emit(Instr{Op: OpCS}) }

// Halt emits the end of the passage.
func (b *Builder) Halt() { b.emit(Instr{Op: OpHalt}) }

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) {
	b.fixups[len(b.code)] = label
	b.emit(Instr{Op: OpJump})
}

// JumpIfEq jumps to label when reg[x] == reg[y].
func (b *Builder) JumpIfEq(x, y int, label string) {
	b.fixups[len(b.code)] = label
	b.emit(Instr{Op: OpJumpIfEq, A: x, B: y})
}

// JumpIfNe jumps to label when reg[x] != reg[y].
func (b *Builder) JumpIfNe(x, y int, label string) {
	b.fixups[len(b.code)] = label
	b.emit(Instr{Op: OpJumpIfNe, A: x, B: y})
}

// JumpIfLt jumps to label when reg[x] < reg[y].
func (b *Builder) JumpIfLt(x, y int, label string) {
	b.fixups[len(b.code)] = label
	b.emit(Instr{Op: OpJumpIfLt, A: x, B: y})
}

// Build resolves labels and validates the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	code := make([]Instr, len(b.code))
	copy(code, b.code)
	for pos, label := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("vmprog %s: undefined label %q", b.name, label)
		}
		code[pos].Target = target
	}
	p := &Program{Name: b.name, Vars: append([]string(nil), b.vars...), Code: code, Class: b.class,
		Owned: append([]Span(nil), b.owned...)}
	if b.recover != "" {
		rec, ok := b.labels[b.recover]
		if !ok {
			return nil, fmt.Errorf("vmprog %s: undefined recover label %q", b.name, b.recover)
		}
		p.Recover = rec
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
