package vmprog

import (
	"cmp"
	"fmt"
	"math/bits"

	"priceadaptive/internal/tso"
)

// maxSymmetryN bounds the process count for which canonicalization is
// attempted. The canonicalizer tries only the orderings of tied slots, but
// the group keeps tables per permutation (2·n!·nv cell entries, built once
// per engine) and names a permutation by a uint16 index, so n! must stay
// small: 5,040 permutations at 7.
const maxSymmetryN = 7

// reducer holds what the reduced exploration consults on every state: the
// pruning facts, instantiated future-footprint bitsets, the symmetry group
// (when symmetry facts are present) and reusable scratch buffers. It is
// built by UsePruning and, because of the scratch buffers, serves one
// goroutine at a time: the frontier engine gives each worker a reducer of
// its own (workerClone), sharing the read-only group.
type reducer struct {
	f *PruneFacts
	g *symGroup // nil: no symmetry canonicalization
	// candR/candW are the ample candidate's read/write footprint scratch.
	candR, candW []uint64
	// off[i] is where process i's fields start in the identity encoding
	// canonize is permuting; ord[j] is the process canonize puts in slot j,
	// tie[j] says that its key equals slot j-1's, and step[j] counts the
	// transpositions nextTied has made in the run of ties starting at j.
	// encA/encB hold the smaller images canonize finds, out
	// CanonicalState's encoding.
	off, ord, step  [maxSymmetryN]int
	tie             [maxSymmetryN]bool
	encA, encB, out []uint64
}

func newReducer(e *Engine, f *PruneFacts, g *symGroup) *reducer {
	nw := (len(e.prog.Vars) + 63) / 64
	return &reducer{f: f, g: g, candR: make([]uint64, nw), candW: make([]uint64, nw)}
}

// symGroup is the permutation group the canonicalizer ranges over, with
// per-permutation tables that turn an image's memory into table lookups.
// UsePruning builds and checks it once per engine; it is read-only
// afterwards, so every worker's reducer shares it.
type symGroup struct {
	facts *SymmetryFacts
	n, nv int
	// perms enumerates S_n with the identity first and invs holds their
	// inverses. The frontier engines name a permutation by its index in
	// perms; rank maps a permutation's lexicographic rank to that index,
	// and byInv maps the rank of its inverse there. swaps[k] walks the
	// orders of k tied processes (heapSwaps).
	perms, invs [][]int
	rank, byInv []uint16
	swaps       [][][2]uint8
	// from[pi*nv+c] is the variable whose content lands in cell c under
	// perms[pi], the inverse of the cell forms; to[pi*nv+v] is the cell
	// that receives variable v's content.
	from, to []int32
	// cells lists, ascending, the cells whose cell form or value form is a
	// real map. Every other cell keeps its own content in every image, so
	// it ties under every permutation and the comparison skips it.
	cells []int32
	// mapped[pc] marks the registers live at pc whose form is a real map;
	// every other register keeps its (liveness-masked) value in every image.
	// plain[pc] marks the live ones among those.
	mapped, plain []uint16
}

// newSymGroup checks f's symmetry facts for program p at n processes and
// builds their group tables: nil when n exceeds maxSymmetryN, where the
// facts go unused. Facts may come back from a JSON cache, so a form whose
// B is not -1, 0 or +1, or cell forms that do not map the variables
// one-to-one onto themselves under every permutation, are errors: the one
// would index past the memory, the other merge states that are not
// symmetric.
func newSymGroup(p *Program, n int, f *PruneFacts) (*symGroup, error) {
	sym := f.Symmetry
	for pc, forms := range sym.RegForms {
		for reg, fm := range forms {
			if !fm.valid() {
				return nil, fmt.Errorf("vmprog: symmetry reg form at pc %d register %d has B=%d, want -1, 0 or +1", pc, reg, fm.B)
			}
		}
	}
	for v := range sym.ValForms {
		if fm := sym.ValForms[v]; !fm.valid() {
			return nil, fmt.Errorf("vmprog: symmetry value form of variable %d has B=%d, want -1, 0 or +1", v, fm.B)
		}
		if fm := sym.CellForms[v]; !fm.valid() {
			return nil, fmt.Errorf("vmprog: symmetry cell form of variable %d has B=%d, want -1, 0 or +1", v, fm.B)
		}
	}
	if n > maxSymmetryN {
		return nil, nil
	}
	nv := len(p.Vars)
	g := &symGroup{facts: sym, n: n, nv: nv, perms: permutations(n)}
	g.invs = make([][]int, len(g.perms))
	g.rank = make([]uint16, len(g.perms))
	g.byInv = make([]uint16, len(g.perms))
	g.swaps = make([][][2]uint8, n+1)
	for k := range g.swaps {
		g.swaps[k] = heapSwaps(k)
	}
	g.from = make([]int32, len(g.perms)*nv)
	g.to = make([]int32, len(g.perms)*nv)
	for pi, perm := range g.perms {
		g.invs[pi] = make([]int, n)
		for j, k := range perm {
			g.invs[pi][k] = j
		}
		g.rank[lexRank(perm)] = uint16(pi)
		g.byInv[lexRank(g.invs[pi])] = uint16(pi)
		from, to := g.from[pi*nv:(pi+1)*nv], g.to[pi*nv:(pi+1)*nv]
		for c := range from {
			from[c] = -1
		}
		for v := range to {
			c := sym.CellForms[v].apply(uint64(v), perm)
			if c >= uint64(nv) {
				return nil, fmt.Errorf("vmprog: symmetry cell form sends variable %d to cell %d under permutation %v, past the last of %d variables",
					v, int64(c), perm, nv)
			}
			if w := from[c]; w >= 0 {
				return nil, fmt.Errorf("vmprog: symmetry cell forms send variables %d and %d to cell %d under permutation %v",
					w, v, c, perm)
			}
			from[c], to[v] = int32(v), int32(c)
		}
	}
	for c := range nv {
		if sym.CellForms[c].Mapped() || sym.ValForms[c].Mapped() {
			g.cells = append(g.cells, int32(c))
		}
	}
	g.mapped = make([]uint16, len(sym.RegForms))
	g.plain = make([]uint16, len(sym.RegForms))
	for pc, forms := range sym.RegForms {
		for reg, fm := range forms {
			if fm.Mapped() && f.LiveRegs[pc]&(1<<reg) != 0 {
				g.mapped[pc] |= 1 << reg
			}
		}
		g.plain[pc] = f.LiveRegs[pc] &^ g.mapped[pc]
	}
	return g, nil
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
	sym := r.g.facts
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
// with dead registers read as zero, canonicalized in place. It returns the
// extended slice and the permutation canonize chose, and leaves s
// unmodified.
func (r *reducer) canonEncode(dst []uint64, s *State) ([]uint64, uint16) {
	start := len(dst)
	dst = encodeLive(dst, s, r.f.LiveRegs)
	return dst, r.canonize(dst[start:])
}

// canonize overwrites id, a flat encoding with dead registers read as zero,
// with the canonical member of its orbit under S_n when symmetry facts are
// installed, and returns the index in r.g.perms of the permutation that
// produced it: 0, the identity, when id is canonical already (always,
// without symmetry).
//
// A process's key is what no permutation changes: its flags word (PC,
// flags, crash count), the registers r.g.mapped does not mark at its PC
// (dead ones read as zero) and its buffer length. Every member of an orbit
// has the same multiset of keys, so the images whose slots hold ascending
// keys are one set for the whole orbit, and the lexicographically smallest
// of them is one representative per orbit. canonize sorts the processes by
// key, then walks the orderings that permute processes only within runs of
// equal keys, and keeps the smallest image: compared a word at a time by
// permLess and written out only when it wins, so it builds no State.
func (r *reducer) canonize(id []uint64) uint16 {
	g := r.g
	if g == nil {
		return 0
	}
	off, ord, tie := r.off[:g.n], r.ord[:g.n], r.tie[:g.n]
	k := g.nv
	for i := range off {
		off[i] = k
		k += bufAt + 1 + 2*int(id[k+bufAt])
	}
	// A stable insertion sort that marks the runs as it goes. Inserting a
	// key before a larger one never splits a run of equal keys: the
	// displaced neighbour only loses its tie with the inserted key.
	ord[0], tie[0] = 0, false
	moved, tied := false, false
	for i := 1; i < len(ord); i++ {
		j, c, flags := i, 0, id[off[i]]
		for ; j > 0; j-- {
			if c = cmp.Compare(flags, id[off[ord[j-1]]]); c == 0 {
				c = g.restCmp(id[off[i]:], id[off[ord[j-1]]:])
			}
			if c >= 0 {
				break
			}
			ord[j], tie[j] = ord[j-1], tie[j-1]
		}
		if j < i {
			moved, tie[j+1] = true, false
		}
		ord[j], tie[j] = i, c == 0
		tied = tied || c == 0
	}
	if !moved && !tied {
		return 0
	}
	// The stable order is the first candidate. When nothing moved it is the
	// identity, whose image is id; when something did, the identity is no
	// candidate. Either way bi ends at 0 exactly when id is the minimum.
	best, bi := id, uint16(0)
	if moved {
		bi = g.byInv[lexRank(ord)]
		r.encA = r.image(r.encA[:0], id, int(bi))
		best = r.encA
		r.encA, r.encB = r.encB, r.encA
	}
	for tied && r.nextTied() {
		if pi := g.byInv[lexRank(ord)]; r.permLess(id, best, int(pi)) {
			// encA is never the best: it alternates with encB.
			r.encA = r.image(r.encA[:0], id, int(pi))
			best, bi = r.encA, pi
			r.encA, r.encB = r.encB, r.encA
		}
	}
	if bi != 0 {
		copy(id, best)
	}
	return bi
}

// restCmp compares the keys of the processes whose fields start p and q
// (see canonize) once their flags words, and so their PCs, are equal:
// their live unmapped registers, then their buffer lengths. It returns -1,
// 0 or +1.
func (g *symGroup) restCmp(p, q []uint64) int {
	for m := g.plain[p[0]>>pcShift&pcMask]; m != 0; m &= m - 1 {
		if w := 1 + bits.TrailingZeros16(m); p[w] != q[w] {
			return cmp.Compare(p[w], q[w])
		}
	}
	return cmp.Compare(p[bufAt], q[bufAt])
}

// nextTied advances r.ord to the next ordering that permutes processes only
// within the runs of equal keys r.tie marks, like an odometer whose last
// run turns fastest: a run steps through its orders by the transpositions
// of Heap's algorithm, which visit every order from any start, and one
// that has visited them all carries to the run before it. After the last
// ordering it reports false, every run's count back at zero.
func (r *reducer) nextTied() bool {
	ord, tie := r.ord[:r.g.n], r.tie[:r.g.n]
	for hi := len(ord); hi > 1; {
		lo := hi - 1
		for lo > 0 && tie[lo] {
			lo--
		}
		if sw := r.g.swaps[hi-lo]; r.step[lo] < len(sw) {
			t := sw[r.step[lo]]
			ord[lo+int(t[0])], ord[lo+int(t[1])] = ord[lo+int(t[1])], ord[lo+int(t[0])]
			r.step[lo]++
			return true
		}
		r.step[lo] = 0
		hi = lo
	}
	return false
}

// heapSwaps returns the k!-1 transpositions of positions by which Heap's
// algorithm walks through all orders of k elements.
func heapSwaps(k int) [][2]uint8 {
	var out [][2]uint8
	c := make([]int, k)
	for i := 1; i < k; {
		if c[i] < i {
			j := 0
			if i%2 == 1 {
				j = c[i]
			}
			out = append(out, [2]uint8{uint8(j), uint8(i)})
			c[i]++
			i = 1
		} else {
			c[i] = 0
			i++
		}
	}
	return out
}

// permLess reports whether the image under r.g.perms[pi] of the state whose
// identity encoding is id is lexicographically smaller than best, the
// encoding of another image of it. It computes the image a word at a time
// in encoding order and returns at the first word that differs from best:
// memory first, cell by cell through the permutation's table (skipping the
// cells that tie under every permutation), then slot by slot, slot j
// holding process inv[j] with its live registers rewritten through the
// forms at its PC and its buffered writes relabeled in order.
func (r *reducer) permLess(id, best []uint64, pi int) bool {
	g := r.g
	vf, perm := g.facts.ValForms, g.perms[pi]
	from := g.from[pi*g.nv : (pi+1)*g.nv]
	for _, c := range g.cells {
		v := from[c]
		if x := vf[v].apply(id[v], perm); x != best[c] {
			return x < best[c]
		}
	}
	to := g.to[pi*g.nv : (pi+1)*g.nv]
	k := g.nv
	for _, i := range g.invs[pi] {
		// p is the process's fields; b is the slot's in best, laid out
		// alike as long as the words so far tie.
		p, b := id[r.off[i]:], best[k:]
		if p[0] != b[0] {
			return p[0] < b[0]
		}
		pc := int(p[0] >> pcShift & pcMask)
		mapped, forms := g.mapped[pc], g.facts.RegForms[pc]
		for reg := range NumRegs {
			x := p[1+reg]
			if mapped&(1<<reg) != 0 {
				x = forms[reg].apply(x, perm)
			}
			if x != b[1+reg] {
				return x < b[1+reg]
			}
		}
		if p[bufAt] != b[bufAt] {
			return p[bufAt] < b[bufAt]
		}
		end := bufAt + 1 + 2*int(p[bufAt])
		for w := bufAt + 1; w < end; w += 2 {
			v := p[w]
			if c := uint64(to[v]); c != b[w] {
				return c < b[w]
			}
			if x := vf[v].apply(p[w+1], perm); x != b[w+1] {
				return x < b[w+1]
			}
		}
		k += end
	}
	return false
}

// image appends to dst the encoding of the image under r.g.perms[pi] of the
// state whose identity encoding is id: the words permLess computes, and the
// cells it skips.
func (r *reducer) image(dst, id []uint64, pi int) []uint64 {
	g := r.g
	vf, perm := g.facts.ValForms, g.perms[pi]
	for _, v := range g.from[pi*g.nv : (pi+1)*g.nv] {
		dst = append(dst, vf[v].apply(id[v], perm))
	}
	to := g.to[pi*g.nv : (pi+1)*g.nv]
	for _, i := range g.invs[pi] {
		p := id[r.off[i]:]
		pc := int(p[0] >> pcShift & pcMask)
		mapped, forms := g.mapped[pc], g.facts.RegForms[pc]
		dst = append(dst, p[0])
		for reg := range NumRegs {
			x := p[1+reg]
			if mapped&(1<<reg) != 0 {
				x = forms[reg].apply(x, perm)
			}
			dst = append(dst, x)
		}
		dst = append(dst, p[bufAt])
		end := bufAt + 1 + 2*int(p[bufAt])
		for w := bufAt + 1; w < end; w += 2 {
			v := p[w]
			dst = append(dst, uint64(to[v]), vf[v].apply(p[w+1], perm))
		}
	}
	return dst
}

// compose chains two cumulative permutations, given as indices into
// r.g.perms (0 is the identity): first cum, then perm. The result maps a
// real slot to its slot after both.
func (r *reducer) compose(perm, cum uint16) uint16 {
	if perm == 0 {
		return cum
	}
	if cum == 0 {
		return perm
	}
	p, c := r.g.perms[perm], r.g.perms[cum]
	var out [maxSymmetryN]int
	for i, j := range c {
		out[i] = p[j]
	}
	return r.g.rank[lexRank(out[:len(c)])]
}

// realDec translates a decision taken in the canonical frame of a state with
// cumulative permutation cum (an index into r.g.perms, 0 the identity) back
// into the real (initial) frame, so recorded schedules replay against an
// unreduced engine.
func (r *reducer) realDec(d tso.Decision, cum uint16) tso.Decision {
	if cum == 0 {
		return d
	}
	return r.pullBack(d, r.g.invs[cum])
}

// pullBack maps a decision through the inverse inv of a cumulative
// permutation: the acting process is the preimage of the canonical slot,
// and a PSO commit's variable is pulled back through the cell forms.
func (r *reducer) pullBack(d tso.Decision, inv []int) tso.Decision {
	d.P = tso.ProcID(inv[int(d.P)])
	if d.Commit && d.VarPlus1 > 0 {
		v := d.VarPlus1 - 1
		d.VarPlus1 = int(r.g.facts.CellForms[v].apply(uint64(v), inv)) + 1
	}
	return d
}

// PermuteState returns the image of s under the process permutation perm
// per the installed symmetry facts (including dead-register zeroing, so the
// action is on liveness-normalized states), or nil when no symmetry facts
// are installed. Exported for the brute-force symmetry oracle tests in
// internal/analysis/por.
func (e *Engine) PermuteState(s *State, perm []int) *State {
	if e.red == nil || e.red.g == nil {
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
	return c, r.g.perms[pi]
}

// PermuteVar returns the memory cell that receives variable v's content
// under perm per the installed symmetry facts (v itself when none are
// installed): the cell-form action the canonicalizer and schedule
// translation use.
func (e *Engine) PermuteVar(v int, perm []int) int {
	if e.red == nil || e.red.g == nil {
		return v
	}
	return int(e.red.g.facts.CellForms[v].apply(uint64(v), perm))
}
