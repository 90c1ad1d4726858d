package vmprog

import (
	"fmt"

	"priceadaptive/internal/tso"
)

// Lock runs a VM program as a lock on the goroutine-based simulator: Lock
// interprets the program up to its OpCS, and Unlock resumes after it and
// runs to OpHalt. It has the method set of mutex.Lock, so internal/mutex
// defines locks as VM programs through it, and Adapt runs any VM program
// through it; the simulator has this one VM interpreter.
type Lock struct {
	name string
	prog *Program
	vars []*tso.Var
	// procs[p] is process p's program counter and register file, kept from
	// its Lock to its Unlock. Each entry is touched only by its own
	// process's program goroutine, so no synchronization is needed.
	procs []interpState
}

// interpState is one process's position in the program.
type interpState struct {
	pc   int
	regs [NumRegs]uint64
}

// AdaptLock binds p to mem as the lock name for n processes. It allocates
// the program's variables in table order, each named prefix+var (e.g.
// "bakery." + "number[3]"), so traces and reports name them per lock.
func AdaptLock(name, prefix string, p *Program, mem *tso.Memory, n int) (*Lock, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	vars := make([]*tso.Var, len(p.Vars))
	for i, v := range p.Vars {
		vars[i] = mem.NewVar(prefix + v)
	}
	return &Lock{name: name, prog: p, vars: vars, procs: make([]interpState, n)}, nil
}

// Name implements mutex.Lock.
func (l *Lock) Name() string { return l.name }

// Lock implements mutex.Lock: it runs the entry protocol up to the OpCS.
func (l *Lock) Lock(proc *tso.Proc) { l.enter(proc) }

// enter starts a passage on a zeroed register file and runs it up to the
// OpCS. A recovery passage enters through the program's recover section,
// exactly like Engine.Crash, and may roll the interrupted passage's exit
// protocol forward to OpHalt without a CS; enter reports whether it stopped
// at the OpCS.
func (l *Lock) enter(proc *tso.Proc) bool {
	st := &l.procs[proc.ID()]
	*st = interpState{}
	if proc.Recovering() {
		st.pc = l.prog.Recover
	}
	return l.run(proc, st, true)
}

// Unlock implements mutex.Lock: it resumes after the OpCS that Lock stopped
// at and runs the exit protocol to OpHalt.
func (l *Lock) Unlock(proc *tso.Proc) {
	st := &l.procs[proc.ID()]
	if l.prog.Code[st.pc].Op == OpCS {
		st.pc++
	}
	l.run(proc, st, false)
}

// Adapt returns a tso.Build that runs the VM program on the goroutine-based
// simulator through Lock, its variables named "vm."+var, making VM locks
// first-class citizens of every existing tool (schedulers, RMR accounting,
// the lower-bound construction).
func Adapt(p *Program) tso.Build {
	return func(sim *tso.Simulator) (tso.Program, error) {
		l, err := AdaptLock(p.Name, "vm.", p, sim.Memory(), sim.Config().N)
		if err != nil {
			return nil, err
		}
		return func(proc *tso.Proc) {
			if l.enter(proc) {
				proc.CS()
			}
			l.Unlock(proc)
		}, nil
	}
}

// run interprets from st.pc until OpHalt, returning false. With stopAtCS it
// stops at the next OpCS instead, leaving st.pc on it and returning true;
// otherwise an OpCS is the critical-section transition.
func (l *Lock) run(proc *tso.Proc, st *interpState, stopAtCS bool) bool {
	p, regs := l.prog, &st.regs
	for {
		in := p.Code[st.pc]
		switch in.Op {
		case OpConst:
			regs[in.A] = in.Imm
		case OpMe:
			regs[in.A] = uint64(proc.ID())
		case OpProcs:
			regs[in.A] = uint64(proc.N())
		case OpAdd:
			regs[in.A] = regs[in.B] + regs[in.C]
		case OpSub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case OpJump:
			st.pc = in.Target
			continue
		case OpJumpIfEq:
			if regs[in.A] == regs[in.B] {
				st.pc = in.Target
				continue
			}
		case OpJumpIfNe:
			if regs[in.A] != regs[in.B] {
				st.pc = in.Target
				continue
			}
		case OpJumpIfLt:
			if regs[in.A] < regs[in.B] {
				st.pc = in.Target
				continue
			}
		case OpRead:
			regs[in.A] = proc.Read(l.variable(in, regs))
		case OpWrite:
			proc.Write(l.variable(in, regs), regs[in.A])
		case OpFence:
			proc.Fence()
		case OpCAS:
			regs[in.A], _ = proc.CAS(l.variable(in, regs), regs[in.B], regs[in.C])
		case OpCS:
			if stopAtCS {
				return true
			}
			proc.CS()
		case OpHalt:
			return false
		}
		st.pc++
	}
}

// variable resolves the variable an instruction addresses, panicking on a
// range error (the simulator surfaces program panics).
func (l *Lock) variable(in Instr, regs *[NumRegs]uint64) *tso.Var {
	vi, err := l.prog.varIndex(in, regs)
	if err != nil {
		panic(fmt.Sprint(err))
	}
	return l.vars[vi]
}
