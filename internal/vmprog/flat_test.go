package vmprog

import (
	"fmt"
	"slices"
	"testing"

	"priceadaptive/internal/tso"
)

// sameState reports the first field in which a and b differ, or "" when
// they agree field for field. Buffers compare by length and entries in
// order, so an empty buffer equals a nil one.
func sameState(a, b *State) string {
	if fmt.Sprint(a.Mem) != fmt.Sprint(b.Mem) {
		return fmt.Sprintf("Mem %v != %v", a.Mem, b.Mem)
	}
	if a.Crashes != b.Crashes {
		return fmt.Sprintf("Crashes %d != %d", a.Crashes, b.Crashes)
	}
	if len(a.Procs) != len(b.Procs) {
		return fmt.Sprintf("%d != %d processes", len(a.Procs), len(b.Procs))
	}
	for i := range a.Procs {
		p, q := a.Procs[i], b.Procs[i]
		if len(p.Buf) != len(q.Buf) {
			return fmt.Sprintf("proc %d: Buf %v != %v", i, p.Buf, q.Buf)
		}
		for k := range p.Buf {
			if p.Buf[k] != q.Buf[k] {
				return fmt.Sprintf("proc %d: Buf %v != %v", i, p.Buf, q.Buf)
			}
		}
		if p.PC != q.PC || p.Regs != q.Regs || p.Fencing != q.Fencing || p.Started != q.Started ||
			p.Done != q.Done || p.InExit != q.InExit || p.Crashed != q.Crashed || p.CrashCount != q.CrashCount {
			return fmt.Sprintf("proc %d: %+v != %+v", i, p, q)
		}
	}
	return ""
}

// flatMatrix runs f over the flat encoding tests' matrix: every registry
// program at n=2 and n=3 (size-fixed programs at their count) under TSO and
// PSO, with the standard two-crash budget where the program has a recover
// section.
func flatMatrix(t *testing.T, f func(name string, p *Program, n int, ord tso.Ordering, crash CrashOpts)) {
	for _, ent := range Registry() {
		ns := []int{2, 3}
		if ent.FixedN > 0 {
			ns = []int{ent.FixedN}
		}
		for _, n := range ns {
			p, err := ent.Build(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", ent.Name, n, err)
			}
			var crash CrashOpts
			if p.Recover != 0 {
				crash = CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
			}
			for _, ord := range []tso.Ordering{tso.TSO, tso.PSO} {
				f(fmt.Sprintf("%s n=%d %v", ent.Name, n, ord), p, n, ord, crash)
			}
		}
	}
}

// TestFlatEncodingRoundTrip holds the flat encoding to its contract as the
// engines' state identity, over flatMatrix. For every state a capped
// breadth-first search reaches, decoding the encoding - into a scratch
// state reused across the whole search, as the frontier engines do - gives
// back the state field for field, and Engine.Hash is the hash of the
// encoding. Distinct encodings must not share a hash either.
func TestFlatEncodingRoundTrip(t *testing.T) {
	limit := 3000
	if testing.Short() {
		limit = 500
	}
	multiBuf := 0
	flatMatrix(t, func(name string, p *Program, n int, ord tso.Ordering, crash CrashOpts) {
		e, err := NewEngineOrdering(p, n, ord)
		if err != nil {
			t.Fatal(err)
		}
		var scratch State
		byHash := make(map[uint64]string)
		// visit checks a newly reached state and reports whether it is new.
		visit := func(s *State) bool {
			enc := encode(nil, s)
			h := e.Hash(s)
			if h != hashWords(enc) {
				t.Fatalf("%s: Engine.Hash %#x, hash of the encoding %#x", name, h, hashWords(enc))
			}
			key := fmt.Sprint(enc)
			if prev, ok := byHash[h]; ok {
				if prev != key {
					t.Fatalf("%s: hash collision between %s and %s", name, prev, key)
				}
				return false
			}
			byHash[h] = key
			decode(&scratch, enc, len(p.Vars), n)
			if diff := sameState(&scratch, s); diff != "" {
				t.Fatalf("%s: decode(encode(s)) != s: %s", name, diff)
			}
			for i := range s.Procs {
				if ord == tso.PSO && len(s.Procs[i].Buf) >= 2 {
					multiBuf++
				}
			}
			return true
		}
		front := []*State{e.Initial()}
		visit(front[0])
		for len(front) > 0 && len(byHash) < limit {
			var next []*State
			for _, s := range front {
				for _, d := range e.EnabledDecisions(s, crash) {
					c := s.Clone()
					if e.Apply(c, d) != nil {
						continue // a post-crash fault: no successor
					}
					if visit(c) {
						next = append(next, c)
					}
				}
			}
			front = next
		}
	})
	if multiBuf == 0 {
		t.Fatal("no reached PSO state holds two or more buffered writes in one process")
	}
	t.Logf("%d PSO process states with two or more buffered writes", multiBuf)
}

// TestSuccessorSpliceMatchesFullEncoding holds the expander, which builds a
// successor's encoding as a patch of its parent's, to the full encoding,
// over flatMatrix, on an engine without reduction facts and on one with the
// program's full facts (its symmetry group included, where it has one).
// The expander is loaded from the canonical encoding of every state a
// capped breadth-first search reaches, and generates every enabled
// decision, crashes included. Each kid's encoding, hash, permutation and
// error must be what canonEncode (encode, without facts) gives on a Clone
// of the decoded parent with the decision applied, and afterwards the
// expander's state must be the decoded parent field for field. In
// crash-free runs with facts, successors under a proviso that rejects every
// ample set must give the same kids, the ample process's first.
func TestSuccessorSpliceMatchesFullEncoding(t *testing.T) {
	limit := 1500
	if testing.Short() {
		limit = 300
	}
	symmetric, rejected := 0, 0
	flatMatrix(t, func(name string, p *Program, n int, ord tso.Ordering, crash CrashOpts) {
		facts, err := testFacts(p, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []*PruneFacts{nil, facts} {
			e, err := NewEngineOrdering(p, n, ord)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.UsePruning(f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e.red != nil && e.red.g != nil {
				symmetric++
			}
			// full is the reference: the canonical encoding of a whole state.
			full := func(s *State) ([]uint64, uint16) {
				if e.red == nil {
					return encode(nil, s), 0
				}
				return e.red.canonEncode(nil, s)
			}
			x := expander{eng: e.workerClone()}
			var par State
			for _, s := range bfsStates(e, crash, limit) {
				penc, _ := full(s)
				decode(&par, penc, len(p.Vars), n)
				x.load(penc)
				x.all(crash)
				decs := e.EnabledDecisions(&par, crash)
				if len(x.kids) != len(decs) {
					t.Fatalf("%s: %d kids, %d enabled decisions", name, len(x.kids), len(decs))
				}
				for k, d := range decs {
					kd := &x.kids[k]
					c := par.Clone()
					werr := e.Apply(c, d)
					if kd.d != d || fmt.Sprint(kd.err) != fmt.Sprint(werr) {
						t.Fatalf("%s: kid %d is %+v with error %v, want %+v with error %v", name, k, kd.d, kd.err, d, werr)
					}
					if werr != nil {
						continue
					}
					want, perm := full(c)
					if got := x.kidEnc(k); !slices.Equal(got, want) || kd.h != hashWords(want) || kd.perm != perm {
						t.Fatalf("%s: parent %v, decision %+v:\nspliced %v hash %#x perm %d\nfull    %v hash %#x perm %d",
							name, penc, d, got, kd.h, kd.perm, want, hashWords(want), perm)
					}
				}
				if diff := sameState(&x.st, &par); diff != "" {
					t.Fatalf("%s: parent %v: after gen, the expander's state differs from the parent: %s", name, penc, diff)
				}
				if e.red == nil || crash.MaxCrashes > 0 {
					continue
				}
				id, ok := e.ampleProcess(&par)
				if !ok {
					continue
				}
				rejected++
				var want []kid
				var wantEnc [][]uint64
				for _, first := range []bool{true, false} {
					for k := range x.kids {
						if (int(x.kids[k].d.P) == id) == first {
							want = append(want, x.kids[k])
							wantEnc = append(wantEnc, slices.Clone(x.kidEnc(k)))
						}
					}
				}
				ample, err := x.successors(func(uint64) bool { return true })
				if ample || err != nil || len(x.kids) != len(want) {
					t.Fatalf("%s: parent %v: successors under a rejecting proviso = %v, %v with %d kids, want false, nil with %d",
						name, penc, ample, err, len(x.kids), len(want))
				}
				for k := range want {
					got := x.kids[k]
					if got.d != want[k].d || got.h != want[k].h || got.perm != want[k].perm || !slices.Equal(x.kidEnc(k), wantEnc[k]) {
						t.Fatalf("%s: parent %v: kid %d of the rejected ample set is %+v, want %+v", name, penc, k, got, want[k])
					}
				}
				if diff := sameState(&x.st, &par); diff != "" {
					t.Fatalf("%s: parent %v: after successors, the expander's state differs from the parent: %s", name, penc, diff)
				}
			}
		}
	})
	if symmetric == 0 || rejected == 0 {
		t.Fatalf("%d engines with a symmetry group, %d ample sets rejected: the matrix covers neither canonize nor the kept ample set", symmetric, rejected)
	}
	t.Logf("%d engines with a symmetry group; %d ample sets rejected", symmetric, rejected)
}

// bfsStates returns up to limit states of e's unreduced state graph under
// crash, in breadth-first order from the initial state. Decisions whose
// Apply fails are skipped.
func bfsStates(e *Engine, crash CrashOpts, limit int) []*State {
	root := e.Initial()
	seen := map[uint64]bool{e.Hash(root): true}
	states := []*State{root}
	for i := 0; i < len(states) && len(states) < limit; i++ {
		for _, d := range e.EnabledDecisions(states[i], crash) {
			c := states[i].Clone()
			if e.Apply(c, d) != nil {
				continue
			}
			if h := e.Hash(c); !seen[h] {
				seen[h] = true
				states = append(states, c)
			}
		}
	}
	return states
}
