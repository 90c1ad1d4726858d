package vmprog

import (
	"fmt"
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

// TestFlatEncodingRoundTrip holds the flat encoding to its contract as the
// engines' state identity. Every registry program runs at n=2 and n=3
// (size-fixed programs at their count) under TSO and PSO, with the standard
// two-crash budget where the program has a recover section. For every state
// a capped breadth-first search reaches, decoding the encoding - into a
// scratch state reused across the whole search, as the frontier engines do
// - gives back the state field for field, and Engine.Hash is the hash of
// the encoding. Distinct encodings must not share a hash either.
func TestFlatEncodingRoundTrip(t *testing.T) {
	limit := 3000
	if testing.Short() {
		limit = 500
	}
	multiBuf := 0
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
				e, err := NewEngineOrdering(p, n, ord)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s n=%d %v", ent.Name, n, ord)
				var scratch State
				byHash := make(map[uint64]string)
				// visit checks a newly reached state and reports whether it
				// is new.
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
			}
		}
	}
	if multiBuf == 0 {
		t.Fatal("no reached PSO state holds two or more buffered writes in one process")
	}
	t.Logf("%d PSO process states with two or more buffered writes", multiBuf)
}
