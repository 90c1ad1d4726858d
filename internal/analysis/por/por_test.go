package por_test

import (
	"fmt"
	"reflect"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// testN picks the process count a registry entry is exercised at: its
// fixed count when it has one, nn otherwise.
func testN(e vmprog.Entry, nn int) int {
	if e.FixedN > 0 {
		return e.FixedN
	}
	return nn
}

// TestFactsShape holds every registry program's facts to the PruneFacts
// contract: correct version and instantiation, per-pc tables covering the
// whole program, per-process footprints of the right width, and - where
// present - symmetry forms covering every pc, register, and variable.
func TestFactsShape(t *testing.T) {
	for _, e := range vmprog.Registry() {
		n := testN(e, 3)
		p, err := e.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res, err := por.Analyze(p, n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		f := res.Facts
		nc := len(p.Code)
		nw := (len(p.Vars) + 63) / 64
		if f.Version != vmprog.FactsVersion {
			t.Errorf("%s: facts version %d, want %d", e.Name, f.Version, vmprog.FactsVersion)
		}
		if f.N != n {
			t.Errorf("%s: facts for n=%d, want %d", e.Name, f.N, n)
		}
		if len(f.VisibleAt) != nc || len(f.EmptyBufAt) != nc || len(f.LiveRegs) != nc {
			t.Errorf("%s: per-pc tables cover %d/%d/%d pcs, want %d",
				e.Name, len(f.VisibleAt), len(f.EmptyBufAt), len(f.LiveRegs), nc)
		}
		if len(f.FutureReads) != n*nc || len(f.FutureWrites) != n*nc {
			t.Fatalf("%s: footprints cover %d/%d entries, want %d",
				e.Name, len(f.FutureReads), len(f.FutureWrites), n*nc)
		}
		for i, w := range f.FutureReads {
			if len(w) != nw || len(f.FutureWrites[i]) != nw {
				t.Fatalf("%s: footprint entry %d has %d/%d words, want %d",
					e.Name, i, len(w), len(f.FutureWrites[i]), nw)
			}
		}
		// A direct (non-indexed) access at pc is trivially in pc's own
		// future footprint, for every process.
		for pc, in := range p.Code {
			if in.Index >= 0 {
				continue
			}
			var want [][]uint64
			switch in.Op {
			case vmprog.OpRead:
				want = f.FutureReads
			case vmprog.OpWrite:
				want = f.FutureWrites
			case vmprog.OpCAS:
				want = f.FutureReads
			default:
				continue
			}
			for id := 0; id < n; id++ {
				if want[id*nc+pc][in.Base/64]&(1<<(in.Base%64)) == 0 {
					t.Errorf("%s: pc %d accesses %s but the future footprint of p%d omits it",
						e.Name, pc, p.Vars[in.Base], id)
				}
			}
		}
		if res.Symmetric != (f.Symmetry != nil) {
			t.Errorf("%s: Symmetric=%v but Facts.Symmetry nil=%v", e.Name, res.Symmetric, f.Symmetry == nil)
		}
		if res.Symmetric == (res.SymmetryNote != "") {
			t.Errorf("%s: symmetric=%v with note %q; want a note exactly when rejected",
				e.Name, res.Symmetric, res.SymmetryNote)
		}
		if sym := f.Symmetry; sym != nil {
			if len(sym.RegForms) != nc {
				t.Fatalf("%s: RegForms cover %d pcs, want %d", e.Name, len(sym.RegForms), nc)
			}
			for pc, forms := range sym.RegForms {
				if len(forms) != vmprog.NumRegs {
					t.Fatalf("%s: RegForms[%d] has %d registers, want %d",
						e.Name, pc, len(forms), vmprog.NumRegs)
				}
			}
			if len(sym.ValForms) != len(p.Vars) || len(sym.CellForms) != len(p.Vars) {
				t.Fatalf("%s: Val/CellForms cover %d/%d vars, want %d",
					e.Name, len(sym.ValForms), len(sym.CellForms), len(p.Vars))
			}
		}
		if sum := res.Summary(); sum.Symmetric != res.Symmetric ||
			sum.SymmetryNote != res.SymmetryNote || sum.FactsVersion != f.Version {
			t.Errorf("%s: Summary does not round-trip the result", e.Name)
		}
	}
}

// wantSymmetric is the expected verdict of symmetry detection per registry
// program at its test process count. The partition is load-bearing: a
// program moving from symmetric to rejected silently halves the reduction,
// and one moving the other way must only do so because the type discipline
// genuinely proves it (review the rejection note before updating).
var wantSymmetric = map[string]bool{
	"anderson":          true,
	"bakery":            false, // ticket array is indexed both by pid and by scanned data
	"bakery-weak":       false,
	"burnslynch":        false, // flag read compared against a differently-mapped value
	"caschain":          true,
	"clh":               true,
	"dekker":            true,
	"dekker-nofence":    true,
	"dm-queue":          true,
	"dm-tas":            true,
	"filter":            false, // level scan compares pid-mapped and plain values
	"km-rme":            true,
	"lamportfast":       false, // splitter arrays mix pid and data indexing
	"mcs":               true,
	"peterson":          true,
	"peterson-nofence":  true,
	"rtas":              true,
	"rtas-dirty":        true,
	"synthetic":         true,
	"synthetic-nofence": true,
	"tas":               true,
	"tournament":        false, // pid order comparison decides the bracket
	"ttas":              true,
}

// TestSymmetryPartition pins which registry programs the scalarset type
// discipline proves permutation-invariant.
func TestSymmetryPartition(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range vmprog.Registry() {
		n := testN(e, 3)
		p, err := e.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res, err := por.Analyze(p, n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want, ok := wantSymmetric[e.Name]
		if !ok {
			t.Errorf("%s: registry program missing from wantSymmetric", e.Name)
			continue
		}
		seen[e.Name] = true
		if res.Symmetric != want {
			t.Errorf("%s (n=%d): symmetric=%v, want %v (note: %s)",
				e.Name, n, res.Symmetric, want, res.SymmetryNote)
		}
	}
	for name := range wantSymmetric {
		if !seen[name] {
			t.Errorf("%s: expected program missing from the registry", name)
		}
	}
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// explore enumerates reachable states of an unreduced engine breadth-first
// up to limit states, using the engine's public Step/Commit transitions
// (TSO: only the oldest buffered write may commit).
func explore(t *testing.T, eng *vmprog.Engine, n, limit int) []*vmprog.State {
	t.Helper()
	key := func(s *vmprog.State) string { return fmt.Sprintf("%v", s) }
	init := eng.Initial()
	seen := map[string]bool{key(init): true}
	states := []*vmprog.State{init}
	for i := 0; i < len(states) && len(states) < limit; i++ {
		s := states[i]
		for id := 0; id < n; id++ {
			succs := make([]*vmprog.State, 0, 2)
			if !s.Procs[id].Done {
				c := s.Clone()
				if err := eng.Step(c, id); err == nil {
					succs = append(succs, c)
				}
			}
			if s.Procs[id].BufLen() > 0 {
				c := s.Clone()
				if err := eng.Commit(c, id, -1); err == nil {
					succs = append(succs, c)
				}
			}
			for _, c := range succs {
				if k := key(c); !seen[k] {
					seen[k] = true
					states = append(states, c)
				}
			}
		}
	}
	return states
}

// TestCanonicalOrbitOracle is the brute-force soundness oracle for the
// symmetry canonicalizer: over every reachable state of every symmetric
// registry program at n <= 3, and of mcs at n = 4 (the 24-permutation group
// the explore-sym benchmark workload canonicalizes over), the canonical
// representative must be identical across the state's entire orbit under
// all n! process permutations, and must itself be a member of that orbit.
// Together these say the canonicalizer picks exactly one representative per
// orbit - states are merged if and only if a permutation relates them.
func TestCanonicalOrbitOracle(t *testing.T) {
	// States per program at n <= 3, and for mcs at n = 4, where a state
	// costs 24 canonicalizations of 24 images each.
	limit, limit4 := 1500, 10000
	if testing.Short() {
		limit, limit4 = 300, 2000
	}
	for _, e := range vmprog.Registry() {
		if e.FixedN > 3 {
			continue // tournament: 4! orbits, and not symmetric anyway
		}
		ns := []int{testN(e, 3)}
		if e.Name == "mcs" {
			ns = append(ns, 4)
		}
		for _, n := range ns {
			lim := limit
			if n == 4 {
				lim = limit4
			}
			p, err := e.Build(n)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			res, err := por.Analyze(p, n)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if !res.Symmetric {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", e.Name, n), func(t *testing.T) {
				red, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
				if err != nil {
					t.Fatal(err)
				}
				if err := red.UsePruning(res.Facts); err != nil {
					t.Fatal(err)
				}
				plain, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
				if err != nil {
					t.Fatal(err)
				}
				perms := permutations(n)
				identity := perms[0]
				for _, s := range explore(t, plain, n, lim) {
					rep, permUsed := red.CanonicalState(s)
					if permUsed == nil {
						permUsed = identity
					}
					// The representative is the chosen permutation's image
					// of the (liveness-normalized) state.
					if img := red.PermuteState(s, permUsed); !reflect.DeepEqual(rep, img) {
						t.Fatalf("representative is not the claimed orbit member\nstate %v\nperm %v\nrep   %v\nimage %v",
							s, permUsed, rep, img)
					}
					for _, perm := range perms {
						img := red.PermuteState(s, perm)
						got, _ := red.CanonicalState(img)
						if !reflect.DeepEqual(got, rep) {
							t.Fatalf("orbit split: state %v under perm %v canonicalizes to\n%v\nwant\n%v",
								s, perm, got, rep)
						}
					}
				}
			})
		}
	}
}
