package absint

import (
	"math"
	"strings"

	"priceadaptive/internal/rmr"
	"priceadaptive/internal/vmprog"
)

// rng is the per-register abstract value: an unsigned range [lo,hi], or
// top (the full range). Ranges make indexed footprints precise: OpMe
// evaluates to [0,n-1], so flag[me] resolves to the flag array rather
// than the whole tail of the variable table.
type rng struct {
	top    bool
	lo, hi uint64
}

var rngTop = rng{top: true}

func rngConst(c uint64) rng     { return rng{lo: c, hi: c} }
func rngSpan(lo, hi uint64) rng { return rng{lo: lo, hi: hi} }
func (r rng) isConst() bool     { return !r.top && r.lo == r.hi }
func (r rng) intersects(o rng) bool {
	if r.top || o.top {
		return true
	}
	return r.lo <= o.hi && o.lo <= r.hi
}

// join is the range hull.
func (r rng) join(o rng) rng {
	if r.top || o.top {
		return rngTop
	}
	lo, hi := r.lo, r.hi
	if o.lo < lo {
		lo = o.lo
	}
	if o.hi > hi {
		hi = o.hi
	}
	return rng{lo: lo, hi: hi}
}

func (r rng) add(o rng) rng {
	if r.top || o.top {
		return rngTop
	}
	lo := r.lo + o.lo
	hi := r.hi + o.hi
	if lo < r.lo || hi < r.hi { // unsigned overflow
		return rngTop
	}
	return rng{lo: lo, hi: hi}
}

func (r rng) sub(o rng) rng {
	if r.top || o.top || r.lo < o.hi {
		// A possible wraparound makes the result the full range.
		return rngTop
	}
	return rng{lo: r.lo - o.hi, hi: r.hi - o.lo}
}

// istate is the interpreter's abstract state at one program point: ranges
// per register plus the write-buffer component from domain.go.
type istate struct {
	regs      [vmprog.NumRegs]rng
	may, must bitset
	occLo     int
	occHi     int
}

func newIState(nvars int) *istate {
	s := &istate{may: newBitset(nvars), must: newBitset(nvars)}
	for i := range s.regs {
		s.regs[i] = rngConst(0) // engines zero-initialize register files
	}
	return s
}

func (s *istate) clone() *istate {
	ns := *s
	ns.may = s.may.clone()
	ns.must = s.must.clone()
	return &ns
}

// widenLimit bounds how often a program point's state may grow before
// register ranges are widened to top, guaranteeing termination even for
// programs whose loop counters climb to large constants.
const widenLimit = 64

// joinInto joins o into s, reporting change; when widen is set, any
// register whose range would grow is sent straight to top.
func (s *istate) joinInto(o *istate, widen bool) bool {
	changed := false
	for i := range s.regs {
		j := s.regs[i].join(o.regs[i])
		if j != s.regs[i] {
			if widen {
				j = rngTop
			}
			if j != s.regs[i] {
				s.regs[i] = j
				changed = true
			}
		}
	}
	if s.may.unionInto(o.may) {
		changed = true
	}
	if s.must.intersectInto(o.must) {
		changed = true
	}
	if o.occLo < s.occLo {
		s.occLo = o.occLo
		changed = true
	}
	if o.occHi > s.occHi {
		s.occHi = o.occHi
		changed = true
	}
	return changed
}

// footprint is the set of variables an access may address, plus whether
// the access can fail the engine's table-bounds check (a hard runtime
// error) and whether it must fail.
type footprint struct {
	vars      bitset
	lo, hi    int // inclusive var-index range (valid when !mustErr)
	mayErr    bool
	mustErr   bool
	singleton bool
}

// resolve computes the footprint of an OpRead/OpWrite/OpCAS instruction
// under the abstract register file, exactly mirroring Program.Addr: the
// address is Base + reg[Index] into the variable table, with anything
// escaping the table a runtime error.
func (it *interp) resolve(in vmprog.Instr, s *istate) footprint {
	nv := it.nvars
	f := footprint{vars: newBitset(nv)}
	if in.Index < 0 {
		f.lo, f.hi = in.Base, in.Base
		f.singleton = true
		f.vars.set(in.Base)
		return f
	}
	r := s.regs[in.Index]
	if r.top {
		r = rng{lo: 0, hi: math.MaxUint64}
	}
	// Successful accesses land in [Base+lo, min(Base+hi, nv-1)].
	if r.lo >= uint64(nv-in.Base) {
		f.mustErr = true
		f.mayErr = true
		return f
	}
	lo := in.Base + int(r.lo)
	hi := nv - 1
	if r.hi < uint64(nv-in.Base) {
		hi = in.Base + int(r.hi)
	} else {
		f.mayErr = true
	}
	f.lo, f.hi = lo, hi
	f.singleton = lo == hi
	for v := lo; v <= hi; v++ {
		f.vars.set(v)
	}
	return f
}

// interp runs the abstract interpretation fixpoint for one program.
type interp struct {
	p     *vmprog.Program
	n     int
	nvars int
	// state[pc] is the abstract state on entry to pc; nil when pc is
	// unreachable under abstract branch feasibility.
	state []*istate
	// succs[pc] are the feasible successor edges under the final states.
	succs [][]int
	// addrErr[pc] reports a definite out-of-table access at pc.
	addrErr []bool
	joins   []int
}

func newInterp(p *vmprog.Program, n int) *interp {
	return &interp{
		p:       p,
		n:       n,
		nvars:   len(p.Vars),
		state:   make([]*istate, len(p.Code)),
		succs:   make([][]int, len(p.Code)),
		addrErr: make([]bool, len(p.Code)),
		joins:   make([]int, len(p.Code)),
	}
}

// transfer applies the abstract semantics of the instruction at pc to a
// copy of s and returns the out-state together with the feasible
// successor PCs. It follows the fast engine's operational semantics: the
// buffer components change only at writes (issue), fences, and CASes
// (both drain before control proceeds).
func (it *interp) transfer(pc int, s *istate) (*istate, []int) {
	in := it.p.Code[pc]
	out := s.clone()
	next := []int{pc + 1}
	switch in.Op {
	case vmprog.OpConst:
		out.regs[in.A] = rngConst(in.Imm)
	case vmprog.OpMe:
		out.regs[in.A] = rngSpan(0, uint64(it.n-1))
	case vmprog.OpProcs:
		out.regs[in.A] = rngConst(uint64(it.n))
	case vmprog.OpAdd:
		out.regs[in.A] = s.regs[in.B].add(s.regs[in.C])
	case vmprog.OpSub:
		out.regs[in.A] = s.regs[in.B].sub(s.regs[in.C])
	case vmprog.OpJump:
		next = []int{in.Target}
	case vmprog.OpJumpIfEq:
		next = branch(pc, in,
			s.regs[in.A].intersects(s.regs[in.B]),
			!(s.regs[in.A].isConst() && s.regs[in.A] == s.regs[in.B]))
	case vmprog.OpJumpIfNe:
		next = branch(pc, in,
			!(s.regs[in.A].isConst() && s.regs[in.A] == s.regs[in.B]),
			s.regs[in.A].intersects(s.regs[in.B]))
	case vmprog.OpJumpIfLt:
		a, b := s.regs[in.A], s.regs[in.B]
		lt := a.top || b.top || a.lo < b.hi
		ge := a.top || b.top || a.hi >= b.lo
		next = branch(pc, in, lt, ge)
	case vmprog.OpRead:
		f := it.resolve(in, s)
		if f.mustErr {
			it.addrErr[pc] = true
			return out, nil // execution aborts; no successor
		}
		out.regs[in.A] = rngTop
	case vmprog.OpWrite:
		f := it.resolve(in, s)
		if f.mustErr {
			it.addrErr[pc] = true
			return out, nil
		}
		if f.singleton {
			v := f.lo
			switch {
			case s.must.has(v):
				// Guaranteed coalesce: occupancy unchanged.
			case s.may.has(v):
				out.occHi = minInt(s.occHi+1, it.nvars)
			default:
				out.occLo = minInt(s.occLo+1, it.nvars)
				out.occHi = minInt(s.occHi+1, it.nvars)
			}
			out.must.set(v)
		} else {
			out.occHi = minInt(s.occHi+1, it.nvars)
		}
		out.may.unionInto(f.vars)
	case vmprog.OpCAS:
		f := it.resolve(in, s)
		if f.mustErr {
			it.addrErr[pc] = true
			return out, nil
		}
		out.regs[in.A] = rngTop
		fallthrough
	case vmprog.OpFence:
		// Both drain the buffer before control proceeds.
		out.may = newBitset(it.nvars)
		out.must = newBitset(it.nvars)
		out.occLo, out.occHi = 0, 0
	case vmprog.OpCS:
		// Transition event; the buffer is untouched.
	case vmprog.OpHalt:
		return out, nil
	}
	return out, next
}

// branch returns the feasible successors of a conditional jump at pc.
func branch(pc int, in vmprog.Instr, takenOK, fallOK bool) []int {
	var next []int
	if fallOK {
		next = append(next, pc+1)
	}
	if takenOK && in.Target != pc+1 {
		next = append(next, in.Target)
	} else if takenOK && !fallOK {
		next = append(next, pc+1)
	}
	return next
}

// run executes the fixpoint, then records the final feasible edges. The
// recover entry (Program.Recover) is a second seed with the same initial
// state as pc 0: a crash zeroes the register file and drops the write
// buffer, so recovery resumes there exactly as a fresh passage would.
func (it *interp) run() {
	it.state[0] = newIState(it.nvars)
	work := []int{0}
	inWork := make([]bool, len(it.p.Code))
	inWork[0] = true
	if rec := it.p.Recover; rec > 0 {
		if it.state[rec] == nil {
			it.state[rec] = newIState(it.nvars)
		}
		work = append(work, rec)
		inWork[rec] = true
	}
	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		inWork[pc] = false
		out, next := it.transfer(pc, it.state[pc])
		for _, s := range next {
			if it.state[s] == nil {
				it.state[s] = out.clone()
			} else {
				it.joins[s]++
				if !it.state[s].joinInto(out, it.joins[s] > widenLimit) {
					continue
				}
			}
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	for pc := range it.p.Code {
		if it.state[pc] == nil {
			continue
		}
		_, next := it.transfer(pc, it.state[pc])
		it.succs[pc] = next
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// metrics indexes the per-instruction weight vectors.
const (
	mFence = iota
	mDSM
	mWT
	mWB
	numMetrics
)

// weights computes, per feasible instruction, the [lo,hi] charge of
// executing it once, for each metric. Fence charges are exact (an
// OpFence completes as one EndFence, an OpCAS serializes); RMR charges
// apply rmr.ChargeBounds to the abstract access footprint, refined by
// the buffer sets (a must-buffered read is store-forwarded and not an
// access; writes charge their eventual commit, which is guaranteed to
// land inside the passage only when every path onward serializes before
// reaching a halt without an intervening write that could coalesce).
// An access whose footprint may reach an owned variable takes its lower
// bound from the local charge: its owner's access is DSM-local.
func (it *interp) weights() [][numMetrics]Interval {
	// bounds is rmr.ChargeBounds for an access to footprint f.
	bounds := func(model rmr.CacheModel, k rmr.AccessKind, f footprint) (lo, hi int) {
		lo, hi = rmr.ChargeBounds(model, k, true)
		if it.mayOwn(f) {
			lLo, _ := rmr.ChargeBounds(model, k, false)
			lo = minInt(lo, lLo)
		}
		return lo, hi
	}
	w := make([][numMetrics]Interval, len(it.p.Code))
	for pc, in := range it.p.Code {
		s := it.state[pc]
		if s == nil {
			continue
		}
		switch in.Op {
		case vmprog.OpFence:
			w[pc][mFence] = Interval{1, 1}
		case vmprog.OpCAS:
			w[pc][mFence] = Interval{1, 1}
			f := it.resolve(in, s)
			for mi, model := range rmr.Models() {
				sLo, sHi := bounds(model, rmr.AccessCASSuccess, f)
				fLo, fHi := bounds(model, rmr.AccessCASFail, f)
				w[pc][mDSM+mi] = Interval{minInt(sLo, fLo), maxInt(sHi, fHi)}
			}
		case vmprog.OpRead:
			f := it.resolve(in, s)
			if f.mustErr {
				continue
			}
			forwarded := f.singleton && s.must.has(f.lo)
			mayForward := f.vars.intersects(s.may)
			for mi, model := range rmr.Models() {
				lo, hi := bounds(model, rmr.AccessRead, f)
				switch {
				case forwarded:
					lo, hi = 0, 0
				case mayForward:
					lo = 0
				}
				w[pc][mDSM+mi] = Interval{lo, hi}
			}
		case vmprog.OpWrite:
			f := it.resolve(in, s)
			if f.mustErr {
				continue
			}
			committed := it.mustCommit(pc, f)
			for mi, model := range rmr.Models() {
				lo, hi := bounds(model, rmr.AccessWriteCommit, f)
				if !committed {
					lo = 0
				}
				w[pc][mDSM+mi] = Interval{lo, hi}
			}
		}
	}
	return w
}

// mayOwn reports whether footprint f may reach a variable of an owned
// array (Program.Owned).
func (it *interp) mayOwn(f footprint) bool {
	if f.mustErr {
		return false
	}
	for _, o := range it.p.Owned {
		if f.lo < o.Base+o.Len && o.Base <= f.hi {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (b bitset) intersects(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// mustCommit reports whether the write issued at pc is guaranteed to
// commit before the passage ends, on every feasible continuation: every
// path from pc+1 reaches a fence or CAS before any halt, without first
// passing another write that may coalesce with this one (TSO merges
// buffered writes per variable, so a coalesced pair commits once and the
// earlier issue must not claim a charge of its own).
func (it *interp) mustCommit(pc int, f footprint) bool {
	seen := make([]bool, len(it.p.Code))
	stack := []int{pc + 1}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if q < 0 || q >= len(it.p.Code) || seen[q] || it.state[q] == nil {
			continue
		}
		seen[q] = true
		in := it.p.Code[q]
		switch in.Op {
		case vmprog.OpFence, vmprog.OpCAS:
			continue // serialized: this branch commits the write
		case vmprog.OpHalt:
			return false // passage can end with the write still buffered
		case vmprog.OpWrite:
			g := it.resolve(in, it.state[q])
			if !g.mustErr && g.vars.intersects(f.vars) {
				return false // a later write may coalesce with this one
			}
		}
		stack = append(stack, it.succs[q]...)
	}
	return true
}

// pathIntervals computes, over the feasible edge graph, the [min,max]
// sum of a per-instruction weight along paths from `from` to each pc
// (weights of instructions strictly before the destination). Max is
// Unbounded past any cycle containing positive weight.
type pathIntervals struct {
	min []int // unreached where no path exists
	max []int // Unbounded, or unreached where no path exists
}

func (it *interp) paths(from int, weight func(pc int) Interval) pathIntervals {
	n := len(it.p.Code)
	pi := pathIntervals{min: make([]int, n), max: make([]int, n)}
	for i := range pi.min {
		pi.min[i] = unreached
		pi.max[i] = unreached
	}
	if it.state[from] == nil {
		return pi
	}
	// Min: Dijkstra with non-negative per-instruction weights.
	pi.min[from] = 0
	done := make([]bool, n)
	for {
		best, bd := -1, unreached
		for pc := 0; pc < n; pc++ {
			if !done[pc] && pi.min[pc] < bd {
				best, bd = pc, pi.min[pc]
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		w := weight(best).Min
		for _, s := range it.succs[best] {
			if nd := bd + w; nd < pi.min[s] {
				pi.min[s] = nd
			}
		}
	}
	// Max: longest path over the SCC condensation of the feasible graph;
	// a cyclic component containing positive weight is unbounded for
	// everything reachable through or from it.
	comp, cyclic := it.scc()
	ncomp := len(cyclic)
	wsum := make([]int, ncomp)
	unb := make([]bool, ncomp)
	for pc := 0; pc < n; pc++ {
		if it.state[pc] == nil {
			continue
		}
		hi := weight(pc).Max
		c := comp[pc]
		if hi != 0 {
			if cyclic[c] {
				unb[c] = true
			} else {
				wsum[c] += hi // acyclic components are single instructions
			}
		}
	}
	csuccs := make([][]int, ncomp)
	for pc := 0; pc < n; pc++ {
		if it.state[pc] == nil {
			continue
		}
		for _, s := range it.succs[pc] {
			if comp[s] != comp[pc] {
				csuccs[comp[pc]] = append(csuccs[comp[pc]], comp[s])
			}
		}
	}
	// Tarjan numbers components in reverse topological order, so
	// descending ids give a forward topological sweep.
	reach := make([]bool, ncomp)
	val := make([]int, ncomp)
	cunb := make([]bool, ncomp)
	start := comp[from]
	reach[start] = true
	for c := ncomp - 1; c >= 0; c-- {
		if !reach[c] {
			continue
		}
		for _, d := range csuccs[c] {
			reach[d] = true
			if v := val[c] + wsum[c]; v > val[d] {
				val[d] = v
			}
			if cunb[c] || unb[c] {
				cunb[d] = true
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		c, ok := comp[pc], it.state[pc] != nil
		if !ok || !reach[c] {
			continue
		}
		switch {
		case cunb[c] || unb[c]:
			pi.max[pc] = Unbounded
		case c == start && cyclic[c]:
			// from and pc share a weightless cycle.
			pi.max[pc] = 0
		default:
			pi.max[pc] = val[c]
		}
	}
	return pi
}

// scc computes strongly connected components of the feasible edge graph
// (iterative Tarjan); cyclic[c] reports a real cycle.
func (it *interp) scc() (comp []int, cyclic []bool) {
	n := len(it.p.Code)
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var tstack []int
	next := 0
	type frame struct{ pc, si int }
	for root := 0; root < n; root++ {
		if it.state[root] == nil || index[root] >= 0 {
			continue
		}
		stack := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		tstack = append(tstack, root)
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.si < len(it.succs[f.pc]) {
				s := it.succs[f.pc][f.si]
				f.si++
				if index[s] < 0 {
					index[s], low[s] = next, next
					next++
					tstack = append(tstack, s)
					onStack[s] = true
					stack = append(stack, frame{s, 0})
				} else if onStack[s] && index[s] < low[f.pc] {
					low[f.pc] = index[s]
				}
				continue
			}
			pc := f.pc
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && low[pc] < low[stack[len(stack)-1].pc] {
				low[stack[len(stack)-1].pc] = low[pc]
			}
			if low[pc] == index[pc] {
				id := len(cyclic)
				size := 0
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack[w] = false
					comp[w] = id
					size++
					if w == pc {
						break
					}
				}
				cy := size > 1
				if !cy {
					for _, s := range it.succs[pc] {
						if s == pc {
							cy = true
						}
					}
				}
				cyclic = append(cyclic, cy)
			}
		}
	}
	return comp, cyclic
}

// varNames renders a footprint for diagnostics.
func (it *interp) varNames(f footprint) string {
	var names []string
	for v := 0; v < it.nvars; v++ {
		if f.vars.has(v) {
			names = append(names, it.p.Vars[v])
			if len(names) == 4 {
				names = append(names, "...")
				break
			}
		}
	}
	return strings.Join(names, ", ")
}
