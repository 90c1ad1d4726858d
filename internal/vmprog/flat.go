package vmprog

import (
	"math/bits"
	"slices"

	"priceadaptive/internal/tso"
)

// The flat encoding is the fast engine's state identity. A state encodes as
// its memory words, then per process one flags word (pflags), the NumRegs
// registers, the buffer length and one (variable, value) pair per buffered
// write, oldest first. It is injective on reachable states (the total crash
// count is the sum of the per-process counts, so it needs no word of its
// own) and self-delimiting: two encodings that agree on a prefix agree on
// where every later field starts, so a word-by-word comparison never runs
// past the end of either. The search engines hash it once per successor,
// keep it in frontier arenas instead of heap states, and decode it into
// per-worker scratch; Engine.Hash is its hash by construction.

// pflags bit layout: five flag bits, the PC above them, the crash count in
// the high word. CrashCount is part of state identity: the remaining
// per-process crash budget determines which crash transitions are enabled.
const (
	flagFencing = 1 << iota
	flagStarted
	flagDone
	flagInExit
	flagCrashed

	pcShift    = 5
	pcMask     = 1<<(32-pcShift) - 1
	crashShift = 32
)

// pflags packs a process's scheduling-relevant booleans, PC and crash count
// into one word of the flat encoding.
func pflags(p *PState) uint64 {
	flags := uint64(p.CrashCount)<<crashShift | uint64(p.PC)<<pcShift
	if p.Fencing {
		flags |= flagFencing
	}
	if p.Started {
		flags |= flagStarted
	}
	if p.Done {
		flags |= flagDone
	}
	if p.InExit {
		flags |= flagInExit
	}
	if p.Crashed {
		flags |= flagCrashed
	}
	return flags
}

// bufAt is where a process's buffer length sits among its fields in the
// flat encoding: after the flags word and the registers.
const bufAt = 1 + NumRegs

// encode appends the flat encoding of s to dst.
func encode(dst []uint64, s *State) []uint64 { return encodeLive(dst, s, nil) }

// encodeLive appends the flat encoding of s to dst with every register that
// live (indexed by PC, nil: all registers live) marks dead at its process's
// PC read as zero.
func encodeLive(dst []uint64, s *State, live []uint16) []uint64 {
	dst = append(dst, s.Mem...)
	for i := range s.Procs {
		dst = encodeProc(dst, &s.Procs[i], live)
	}
	return dst
}

// encodeProc appends the fields of process p to dst: its flags word, its
// registers, with those that live (nil: all live) marks dead at p's PC read
// as zero, its buffer length and its buffered writes.
func encodeProc(dst []uint64, p *PState, live []uint16) []uint64 {
	k := len(dst)
	dst = slices.Grow(dst, bufAt+1+2*len(p.Buf))[:k+bufAt+1]
	dst[k] = pflags(p)
	regs := (*[NumRegs]uint64)(dst[k+1 : k+bufAt])
	*regs = p.Regs
	if live != nil {
		for reg, m := 0, live[p.PC]; reg < NumRegs; reg++ {
			if m&(1<<reg) == 0 {
				regs[reg] = 0
			}
		}
	}
	dst[k+bufAt] = uint64(len(p.Buf))
	for _, b := range p.Buf {
		dst = append(dst, uint64(b.v), b.x)
	}
	return dst
}

// decode overwrites s with the state of an n-process, nv-variable program
// that enc encodes, reusing the memory, process and buffer slices s already
// holds.
func decode(s *State, enc []uint64, nv, n int) {
	s.Mem = append(s.Mem[:0], enc[:nv]...)
	if len(s.Procs) != n {
		s.Procs = make([]PState, n)
	}
	s.Crashes = 0
	k := nv
	for i := range s.Procs {
		k += decodeProc(&s.Procs[i], enc[k:])
		s.Crashes += s.Procs[i].CrashCount
	}
}

// decodeProc overwrites p with the process whose fields start enc, reusing
// p's buffer, and returns the number of words the fields take.
func decodeProc(p *PState, enc []uint64) int {
	f := enc[0]
	p.PC = int(f >> pcShift & pcMask)
	p.CrashCount = int(f >> crashShift)
	p.Fencing = f&flagFencing != 0
	p.Started = f&flagStarted != 0
	p.Done = f&flagDone != 0
	p.InExit = f&flagInExit != 0
	p.Crashed = f&flagCrashed != 0
	p.Regs = [NumRegs]uint64(enc[1:bufAt])
	nb := int(enc[bufAt])
	p.Buf = slices.Grow(p.Buf[:0], nb)[:nb]
	for j := range p.Buf {
		p.Buf[j] = bufEnt{v: int(enc[bufAt+1+2*j]), x: enc[bufAt+2+2*j]}
	}
	return bufAt + 1 + 2*nb
}

// Multipliers of the hash rounds: the 64-bit primes of xxHash.
const (
	hashP1 = 0x9e3779b185ebca87
	hashP2 = 0xc2b2ae3d27d4eb4f
	hashP4 = 0x85ebca77c2b2ae63
	hashP5 = 0x27d4eb2f165667c5
)

// hashRound scrambles word w into accumulator acc: multiply, rotate,
// multiply.
func hashRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*hashP2, 31) * hashP1
}

// hashWords fingerprints a flat encoding with xxHash64's structure over
// 64-bit words: four independent accumulators take a word each in turn, so
// their multiply-rotate rounds overlap in the pipeline; the accumulators are
// merged, the tail words folded in one at a time, and mix64 finishes the
// result so every input bit reaches every output bit.
func hashWords(ws []uint64) uint64 {
	h := hashP5 + uint64(len(ws))
	if len(ws) >= 4 {
		// xxHash64's lane seeds: P1+P2, P2, 0 and -P1, modulo 2^64.
		v1, v2, v3, v4 := uint64(0x60ea27eeadc0b5d6), uint64(hashP2), uint64(0), uint64(0x61c8864e7a143579)
		for ; len(ws) >= 4; ws = ws[4:] {
			v1 = hashRound(v1, ws[0])
			v2 = hashRound(v2, ws[1])
			v3 = hashRound(v3, ws[2])
			v4 = hashRound(v4, ws[3])
		}
		h += bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^hashRound(0, v))*hashP1 + hashP4
		}
	}
	for _, w := range ws {
		h ^= hashRound(0, w)
		h = bits.RotateLeft64(h, 27)*hashP1 + hashP4
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: every input bit reaches every output
// bit.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arenaBlock is the word count of one arena block. Arenas grow a fixed-size
// block at a time and recycle the blocks of expanded layers: a doubling
// slice would copy the live layer on every growth and allocate about twice
// its size again.
const arenaBlock = 1 << 15

// aref locates one encoding in an arena.
type aref struct{ blk, off, n uint32 }

// arena is an append-only store of flat encodings. It holds no pointers
// into the heap, so the garbage collector never scans it.
type arena struct {
	blocks [][]uint64 // the last block is the one being filled
	spare  [][]uint64 // emptied blocks, reused before allocating
}

// put copies enc into the arena.
func (a *arena) put(enc []uint64) aref {
	last := len(a.blocks) - 1
	if last < 0 || cap(a.blocks[last])-len(a.blocks[last]) < len(enc) {
		var b []uint64
		if k := len(a.spare) - 1; k >= 0 && cap(a.spare[k]) >= len(enc) {
			b, a.spare = a.spare[k][:0], a.spare[:k]
		} else {
			b = make([]uint64, 0, max(arenaBlock, len(enc)))
		}
		a.blocks = append(a.blocks, b)
		last++
	}
	off := len(a.blocks[last])
	a.blocks[last] = append(a.blocks[last], enc...)
	return aref{blk: uint32(last), off: uint32(off), n: uint32(len(enc))}
}

// get returns the encoding at r.
func (a *arena) get(r aref) []uint64 { return a.blocks[r.blk][r.off : r.off+r.n] }

// frontier is one shard's share of a search layer: items in discovery
// order, with their encodings in the arena.
type frontier struct {
	items []pitem
	enc   arena
}

// rotate detaches the frontier filled during the layer just expanded, which
// becomes the next layer's front, and refills it with the storage of done,
// the front that layer expanded: no worker reads done any more.
func (f *frontier) rotate(done frontier) frontier {
	next := *f
	*f = frontier{
		items: done.items[:0],
		enc:   arena{spare: append(next.enc.spare, done.enc.blocks...)},
	}
	next.enc.spare = nil
	return next
}

// kid is one successor an expander generated: the decision that produced
// it, and either the error Apply returned or the successor's canonical
// encoding (ending at end in the expander's enc), its hash and the index of
// its canonicalizing permutation.
type kid struct {
	d    tso.Decision
	err  error
	end  int
	h    uint64
	perm uint16
}

// expander is the successor path the frontier engines share. It builds
// each successor as a patch of its parent: a decision changes only the
// memory, the acting process and the crash total (Engine.Apply), so it
// applies the decision to the decoded parent in place and splices the
// successor's encoding from the memory, the parent's words for every other
// process and a fresh encoding of the acting process alone. It
// canonicalizes that encoding in place, hashes it once, and undoes the
// decision from the parent's words; the caller then copies an encoding into
// its shard's arena only when the seen-set does not hold it yet. Every
// buffer is the expander's own and reused, so once they have grown a
// transition allocates nothing.
type expander struct {
	eng *Engine
	// st is the state being expanded, decoded from penc, its encoding in a
	// frontier arena; off[i] is where process i's fields start in penc and
	// off[n] is its length.
	st   State
	penc []uint64
	off  []int
	decs []tso.Decision
	enc  []uint64 // the kids' encodings, back to back
	kids []kid
}

// load decodes the state to expand, whose encoding enc stays in its arena
// while the expander reads it, into x.st and records where each process's
// fields start in enc.
func (x *expander) load(enc []uint64) {
	nv := len(x.eng.prog.Vars)
	decode(&x.st, enc, nv, x.eng.n)
	x.penc = enc
	x.off = append(x.off[:0], nv)
	for i := range x.st.Procs {
		x.off = append(x.off, x.off[i]+bufAt+1+2*len(x.st.Procs[i].Buf))
	}
}

// root replaces the kids with the search's root: the canonical initial
// state, reached by no decision. Its registers are all zero, so none needs
// reading as zero.
func (x *expander) root() {
	x.enc, x.kids = encode(x.enc[:0], x.eng.Initial()), x.kids[:0]
	x.add(tso.Decision{}, 0)
}

// add appends as a kid the state reached by d whose flat encoding, with
// dead registers read as zero, starts at start in x.enc and runs to its
// end: it canonicalizes the encoding in place and hashes it.
func (x *expander) add(d tso.Decision, start int) {
	var perm uint16
	if r := x.eng.red; r != nil {
		perm = r.canonize(x.enc[start:])
	}
	x.kids = append(x.kids, kid{d: d, end: len(x.enc), h: hashWords(x.enc[start:]), perm: perm})
}

// gen appends to the kids the successors of x.st under decs. Each decision
// is applied to x.st in place; the successor's encoding is x.st's memory,
// the parent's words for the processes before and after the acting one,
// whose PCs and so liveness masks it leaves alone, and the acting process
// encoded afresh. The memory, the acting process and the crash total are
// then restored from the parent's words, so x.st is the parent again
// whether or not Apply failed.
func (x *expander) gen(decs []tso.Decision) {
	e, s, nv := x.eng, &x.st, len(x.eng.prog.Vars)
	var live []uint16 // nil, all live, without reduction facts
	if e.red != nil {
		live = e.red.f.LiveRegs
	}
	for _, d := range decs {
		i := int(d.P)
		p := &s.Procs[i]
		if err := e.Apply(s, d); err != nil {
			x.kids = append(x.kids, kid{d: d, err: err, end: len(x.enc)})
		} else {
			start := len(x.enc)
			x.enc = append(x.enc, s.Mem...)
			x.enc = append(x.enc, x.penc[nv:x.off[i]]...)
			x.enc = encodeProc(x.enc, p, live)
			x.enc = append(x.enc, x.penc[x.off[i+1]:]...)
			x.add(d, start)
		}
		copy(s.Mem, x.penc[:nv])
		s.Crashes -= p.CrashCount
		decodeProc(p, x.penc[x.off[i]:])
		s.Crashes += p.CrashCount
	}
}

// successors generates the kids of x.st in a crash-free search. With
// reduction facts it first tries an ample process (conditions C0-C2); its
// successors stand alone unless visited reports one of them explored, the
// caller's cycle proviso (C3). Otherwise every enabled decision is
// expanded: a rejected ample set's successors are kept, first, and only the
// other processes' decisions are generated after them. It reports whether
// the ample set stood, or the first Apply error. The proviso lookup and the
// insertion share each kid's one hash.
func (x *expander) successors(visited func(h uint64) bool) (ample bool, err error) {
	e := x.eng
	x.enc, x.kids = x.enc[:0], x.kids[:0]
	id := -1
	if e.red != nil {
		if a, ok := e.ampleProcess(&x.st); ok {
			x.decs = e.procDecisions(&x.st, a, x.decs[:0])
			x.gen(x.decs)
			if err := x.err(); err != nil {
				return false, err
			}
			ample = true
			for k := range x.kids {
				if visited(x.kids[k].h) {
					ample = false
					break
				}
			}
			if ample {
				return true, nil
			}
			id = a
		}
	}
	x.decs = x.decs[:0]
	for q := range x.st.Procs {
		if q != id {
			x.decs = e.procDecisions(&x.st, q, x.decs)
		}
	}
	x.gen(x.decs)
	return false, x.err()
}

// all generates the successors of x.st under every enabled decision,
// crash decisions included per crash.
func (x *expander) all(crash CrashOpts) {
	e := x.eng
	x.enc, x.kids = x.enc[:0], x.kids[:0]
	x.decs = e.crashDecisions(&x.st, crash, e.decisions(&x.st, x.decs[:0]))
	x.gen(x.decs)
}

// err returns the first Apply error among the kids.
func (x *expander) err() error {
	for k := range x.kids {
		if x.kids[k].err != nil {
			return x.kids[k].err
		}
	}
	return nil
}

// kidEnc returns the encoding of kid k.
func (x *expander) kidEnc(k int) []uint64 {
	start := 0
	if k > 0 {
		start = x.kids[k-1].end
	}
	return x.enc[start:x.kids[k].end]
}

// route translates kid k's decision into the real frame of the parent,
// whose cumulative permutation is cum, and returns it with the kid's
// cumulative permutation.
func (x *expander) route(k int, cum uint16) (tso.Decision, uint16) {
	r := x.eng.red
	kd := &x.kids[k]
	if r == nil {
		return kd.d, 0
	}
	return r.realDec(kd.d, cum), r.compose(kd.perm, cum)
}
