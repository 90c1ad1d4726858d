package vmprog

import "priceadaptive/internal/tso"

// maxSymmetryN bounds the process count for which canonicalization is
// attempted: the canonicalizer enumerates all n! permutations per state, so
// beyond this the factorial cost of canonicalizing outweighs the factorial
// state savings in wall-clock terms.
const maxSymmetryN = 7

// reducer holds the per-engine derived tables the reduced exploration
// consults on every state: instantiated future-footprint bitsets, the
// permutation group (when symmetry facts are present), and reusable scratch
// buffers. It is built by UsePruning and, because of the scratch buffers,
// serves one goroutine at a time: the frontier engine gives each worker a
// reducer of its own (workerClone).
type reducer struct {
	e   *Engine
	f   *PruneFacts
	sym *SymmetryFacts // nil: no symmetry canonicalization
	// perms enumerates S_n with the identity first and invs holds their
	// inverses. The frontier engines name a permutation by its index in
	// perms; rank maps a permutation's lexicographic rank to that index.
	perms, invs [][]int
	rank        []uint16
	// candR/candW are the ample candidate's read/write footprint scratch.
	candR, candW []uint64
	// encA/encB are state-encoding scratch for the min-lex comparison, mem
	// the permuted memory image, out CanonicalState's encoding.
	encA, encB, mem, out []uint64
}

func newReducer(e *Engine, f *PruneFacts) *reducer {
	r := &reducer{e: e, f: f}
	nw := (len(e.prog.Vars) + 63) / 64
	r.candR = make([]uint64, nw)
	r.candW = make([]uint64, nw)
	if f.Symmetry != nil && e.n <= maxSymmetryN {
		r.sym = f.Symmetry
		r.perms = permutations(e.n)
		r.invs = make([][]int, len(r.perms))
		r.rank = make([]uint16, len(r.perms))
		for i, p := range r.perms {
			r.invs[i] = make([]int, len(p))
			for j, k := range p {
				r.invs[i][k] = j
			}
			r.rank[lexRank(p)] = uint16(i)
		}
		r.mem = make([]uint64, len(e.prog.Vars))
	}
	return r
}

// permutations enumerates S_n; the identity is the first element.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}

// lexRank returns the rank of the permutation p in the lexicographic order
// of S_len(p): its Lehmer code read in the factorial number system.
func lexRank(p []int) int {
	r := 0
	for i := range p {
		c := 0
		for _, q := range p[i+1:] {
			if q < p[i] {
				c++
			}
		}
		r = r*(len(p)-i) + c
	}
	return r
}

func setBit(b []uint64, i int)      { b[i/64] |= 1 << (i % 64) }
func hasBit(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func wordsIntersect(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// ampleProcess selects a process whose enabled transitions form a sound
// singleton-process ample set in s: every transition is invisible (C2: the
// Violated predicate cannot change - not the CS, cannot park at the CS, and
// buffer pushes/commits never touch it) and statically independent of
// everything any other process may still do (C1: the candidate's dynamic
// read/write footprint is disjoint from every other process's future
// footprint and pending buffered writes, so all its transitions commute
// with and stay enabled under theirs). C0 holds because only processes with
// at least one enabled transition are considered; C3 (the cycle proviso) is
// discharged dynamically by Check's frozen-layer proviso.
func (e *Engine) ampleProcess(s *State) (int, bool) {
	r := e.red
	f := r.f
	nc := len(e.prog.Code)
cand:
	for id := range s.Procs {
		p := &s.Procs[id]
		if p.Done && len(p.Buf) == 0 {
			continue // no enabled transitions (C0)
		}
		for i := range r.candR {
			r.candR[i] = 0
			r.candW[i] = 0
		}
		// The step transition's effect and visibility, by dynamic case.
		if !p.Done {
			if !p.Started {
				// Enter: local instructions only, no shared accesses.
				if f.VisibleStart {
					continue
				}
			} else if p.Fencing {
				// Commit head while draining, or EndFence + advance.
				if len(p.Buf) == 0 && f.VisibleAt[p.PC] {
					continue
				}
			} else {
				switch in := e.prog.Code[p.PC]; in.Op {
				case OpRead:
					vi, err := e.prog.varIndex(in, &p.Regs)
					if err != nil {
						continue
					}
					if _, own := bufLookup(p, vi); !own {
						// Forwarded from the own buffer the read is a
						// purely local step; only a memory read can race.
						setBit(r.candR, vi)
					}
					if f.VisibleAt[p.PC] {
						continue
					}
				case OpWrite:
					// A buffer push: memory is untouched; the eventual
					// commit is a later, separately-judged transition.
					if f.VisibleAt[p.PC] {
						continue
					}
				case OpFence:
					// Fence-begin only sets the draining flag.
				case OpCAS:
					if len(p.Buf) == 0 {
						vi, err := e.prog.varIndex(in, &p.Regs)
						if err != nil {
							continue
						}
						setBit(r.candR, vi)
						setBit(r.candW, vi)
						if f.VisibleAt[p.PC] {
							continue
						}
					}
					// Non-empty buffer: the step is a drain commit.
				case OpHalt:
					// Sets Done; Violated never depends on it.
				default:
					// OpCS (visible by definition) or a local op the
					// engine should never park at: not a candidate.
					continue
				}
			}
		}
		// Any enabled commit publishes a buffered write.
		for i := range p.Buf {
			setBit(r.candW, p.Buf[i].v)
		}
		// Independence from every other process's future (C1).
		for q := range s.Procs {
			if q == id {
				continue
			}
			qs := &s.Procs[q]
			qpc := 0
			if qs.Started {
				qpc = qs.PC
			}
			qr := f.FutureReads[q*nc+qpc]
			qw := f.FutureWrites[q*nc+qpc]
			if wordsIntersect(r.candW, qr) || wordsIntersect(r.candW, qw) ||
				wordsIntersect(r.candR, qw) {
				continue cand
			}
			for i := range qs.Buf {
				if hasBit(r.candR, qs.Buf[i].v) || hasBit(r.candW, qs.Buf[i].v) {
					continue cand
				}
			}
		}
		return id, true
	}
	return 0, false
}

// zeroDead zeroes every dead register in place: a register not live-in at
// the process's program point is never read before being overwritten, so
// states differing only in such junk are bisimilar and may share a hash.
func (r *reducer) zeroDead(s *State) {
	for i := range s.Procs {
		p := &s.Procs[i]
		live := r.f.LiveRegs[p.PC]
		for reg := 0; reg < NumRegs; reg++ {
			if live&(1<<reg) == 0 {
				p.Regs[reg] = 0
			}
		}
	}
}

// applyPerm returns the image of s under the process permutation perm
// (perm[i] is the slot process i moves to): process states move to their
// permuted slot with registers rewritten through the per-pc forms, memory
// cells move through the cell forms with values rewritten through the value
// forms, and buffered writes are relabeled in order. Dead registers are
// zeroed so the action is well-defined on liveness-normalized states.
func (r *reducer) applyPerm(s *State, perm []int) *State {
	sym := r.sym
	ns := &State{
		Mem:   make([]uint64, len(s.Mem)),
		Procs: make([]PState, len(s.Procs)),
	}
	for v, x := range s.Mem {
		tv := sym.CellForms[v].apply(uint64(v), perm)
		ns.Mem[tv] = sym.ValForms[v].apply(x, perm)
	}
	ns.Crashes = s.Crashes
	for i := range s.Procs {
		p := &s.Procs[i]
		q := PState{
			PC:         p.PC,
			Fencing:    p.Fencing,
			Started:    p.Started,
			Done:       p.Done,
			InExit:     p.InExit,
			Crashed:    p.Crashed,
			CrashCount: p.CrashCount,
		}
		live := r.f.LiveRegs[p.PC]
		forms := sym.RegForms[p.PC]
		for reg := 0; reg < NumRegs; reg++ {
			if live&(1<<reg) != 0 {
				q.Regs[reg] = forms[reg].apply(p.Regs[reg], perm)
			}
		}
		if len(p.Buf) > 0 {
			q.Buf = make([]bufEnt, len(p.Buf))
			for k, b := range p.Buf {
				q.Buf[k] = bufEnt{
					v: int(sym.CellForms[b.v].apply(uint64(b.v), perm)),
					x: sym.ValForms[b.v].apply(b.x, perm),
				}
			}
		}
		ns.Procs[perm[i]] = q
	}
	return ns
}

// canonEncode appends the canonical encoding of s to dst: the flat encoding
// with dead registers read as zero and, when symmetry facts are installed,
// the lexicographic minimum over the orbit of s under S_n. It returns the
// extended slice and the index in r.perms of the permutation that produced
// the minimum (0, the identity, when none is smaller). It builds no State
// per permutation and leaves s unmodified.
func (r *reducer) canonEncode(dst []uint64, s *State) ([]uint64, uint16) {
	if r.sym == nil {
		return encodeLive(dst, s, r.f.LiveRegs), 0
	}
	r.encA = encodeLive(r.encA[:0], s, r.f.LiveRegs)
	best := uint16(0)
	for pi := 1; pi < len(r.perms); pi++ {
		if r.permLess(s, pi) {
			r.encA, r.encB = r.encB, r.encA
			best = uint16(pi)
		}
	}
	return append(dst, r.encA...), best
}

// permLess writes into r.encB the encoding of the image of s under
// r.perms[pi] - what encode(applyPerm(s, perm)) yields - and reports whether
// it is lexicographically smaller than r.encA. It stops at the first memory
// image or process slot that settles the image as not smaller.
func (r *reducer) permLess(s *State, pi int) bool {
	sym, perm, inv := r.sym, r.perms[pi], r.invs[pi]
	clear(r.mem)
	for v, x := range s.Mem {
		r.mem[sym.CellForms[v].apply(uint64(v), perm)] = sym.ValForms[v].apply(x, perm)
	}
	out := append(r.encB[:0], r.mem...)
	k, c := cmpFrom(out, r.encA, 0)
	// Slot j holds process inv[j], its registers rewritten through the forms
	// at its PC and its buffered writes relabeled in order. Once the image
	// is smaller it is written out whole: it becomes the new minimum.
	for j := 0; j < len(inv) && c <= 0; j++ {
		p := &s.Procs[inv[j]]
		out = append(out, pflags(p))
		live, forms := r.f.LiveRegs[p.PC], sym.RegForms[p.PC]
		for reg, x := range p.Regs {
			if live&(1<<reg) == 0 {
				x = 0
			} else {
				x = forms[reg].apply(x, perm)
			}
			out = append(out, x)
		}
		out = append(out, uint64(len(p.Buf)))
		for _, b := range p.Buf {
			out = append(out, sym.CellForms[b.v].apply(uint64(b.v), perm), sym.ValForms[b.v].apply(b.x, perm))
		}
		if c == 0 {
			k, c = cmpFrom(out, r.encA, k)
		}
	}
	r.encB = out
	return c < 0
}

// cmpFrom compares a with b from index k on, given a[:k] == b[:k], up to
// the end of a. It returns the index of the first difference (len(a) when
// there is none) and -1, 0 or +1 as a is smaller, equal so far or larger.
// b is a complete encoding of the same program, so the self-delimiting
// layout keeps b[k] in range wherever a[:k] == b[:k].
func cmpFrom(a, b []uint64, k int) (int, int) {
	for ; k < len(a); k++ {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return k, -1
			}
			return k, 1
		}
	}
	return k, 0
}

// compose chains two cumulative permutations, given as indices into r.perms
// (0 is the identity): first cum, then perm. The result maps a real slot to
// its slot after both.
func (r *reducer) compose(perm, cum uint16) uint16 {
	if perm == 0 {
		return cum
	}
	if cum == 0 {
		return perm
	}
	p, c := r.perms[perm], r.perms[cum]
	var out [maxSymmetryN]int
	for i, j := range c {
		out[i] = p[j]
	}
	return r.rank[lexRank(out[:len(c)])]
}

// realDec translates a decision taken in the canonical frame of a state with
// cumulative permutation cum (an index into r.perms, 0 the identity) back
// into the real (initial) frame, so recorded schedules replay against an
// unreduced engine.
func (r *reducer) realDec(d tso.Decision, cum uint16) tso.Decision {
	if cum == 0 {
		return d
	}
	return r.pullBack(d, r.invs[cum])
}

// pullBack maps a decision through the inverse inv of a cumulative
// permutation: the acting process is the preimage of the canonical slot,
// and a PSO commit's variable is pulled back through the cell forms.
func (r *reducer) pullBack(d tso.Decision, inv []int) tso.Decision {
	d.P = tso.ProcID(inv[int(d.P)])
	if d.Commit && d.VarPlus1 > 0 {
		v := d.VarPlus1 - 1
		d.VarPlus1 = int(r.sym.CellForms[v].apply(uint64(v), inv)) + 1
	}
	return d
}

// PermuteState returns the image of s under the process permutation perm
// per the installed symmetry facts (including dead-register zeroing, so the
// action is on liveness-normalized states), or nil when no symmetry facts
// are installed. Exported for the brute-force symmetry oracle tests in
// internal/analysis/por.
func (e *Engine) PermuteState(s *State, perm []int) *State {
	if e.red == nil || e.red.sym == nil {
		return nil
	}
	c := s.Clone()
	e.red.zeroDead(c)
	return e.red.applyPerm(c, perm)
}

// CanonicalState returns the canonical representative of s and the
// permutation that produced it (nil for the identity). Without installed
// facts s is returned unchanged. The input is not mutated. The
// representative is built once, from its canonical encoding; no other
// member of the orbit is materialized.
func (e *Engine) CanonicalState(s *State) (*State, []int) {
	r := e.red
	if r == nil {
		return s, nil
	}
	var pi uint16
	r.out, pi = r.canonEncode(r.out[:0], s)
	c := &State{}
	decode(c, r.out, len(e.prog.Vars), e.n)
	if pi == 0 {
		return c, nil
	}
	return c, r.perms[pi]
}

// PermuteVar returns the memory cell that receives variable v's content
// under perm per the installed symmetry facts (v itself when none are
// installed): the cell-form action the canonicalizer and schedule
// translation use.
func (e *Engine) PermuteVar(v int, perm []int) int {
	if e.red == nil || e.red.sym == nil {
		return v
	}
	return int(e.red.sym.CellForms[v].apply(uint64(v), perm))
}
