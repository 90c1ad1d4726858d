package vmprog_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func init() { vmprog.SetTestFacts(por.Facts) }

// symEngine builds an engine for the registry program name at n processes
// with its reduction facts installed.
func symEngine(tb testing.TB, name string, n int) *vmprog.Engine {
	tb.Helper()
	p, err := vmprog.Lookup(name, n)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := por.Facts(p, n)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.UsePruning(f); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestCanonEncodeMatchesBruteForce holds the canonicalizer to its
// definition on the breadth-first states (one crash, at most one per
// process) of every symmetric registry program at n = 2, 3 and 4: the
// encoding is the smallest of the encodings of all n! images, each built
// as a whole State, and the permutation is the first in the engine's order
// that yields it.
func TestCanonEncodeMatchesBruteForce(t *testing.T) {
	limit := 10000
	if testing.Short() {
		limit = 2000
	}
	crash := vmprog.CrashOpts{MaxCrashes: 1, MaxPerProc: 1}
	for _, ent := range vmprog.Registry() {
		for n := 2; n <= 4; n++ {
			if ent.FixedN > 0 && ent.FixedN != n {
				continue
			}
			eng := symEngine(t, ent.Name, n)
			if vmprog.NumPerms(eng) == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", ent.Name, n), func(t *testing.T) {
				var got, img, want []uint64
				for _, s := range vmprog.BFSStates(eng, crash, limit) {
					var gi int
					got, gi = vmprog.CanonEncode(eng, got[:0], s)
					wi := 0
					want = vmprog.ImageEncode(eng, want[:0], s, 0)
					for pi := 1; pi < vmprog.NumPerms(eng); pi++ {
						img = vmprog.ImageEncode(eng, img[:0], s, pi)
						if slices.Compare(img, want) < 0 {
							want, img, wi = img, want, pi
						}
					}
					if gi != wi || !slices.Equal(got, want) {
						t.Fatalf("state %v:\ncanonEncode perm %d %v\nbrute force perm %d %v", s, gi, got, wi, want)
					}
				}
			})
		}
	}
}

// TestUsePruningRejectsMalformedSymmetry edits mcs's symmetry facts at n=3
// the ways a damaged facts cache could: each edit must make UsePruning
// return an error, not panic and not install facts that merge asymmetric
// states.
func TestUsePruningRejectsMalformedSymmetry(t *testing.T) {
	const n = 3
	p, err := vmprog.Lookup("mcs", n)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(name string) int {
		v := slices.Index(p.Vars, name)
		if v < 0 {
			t.Fatalf("mcs has no variable %s", name)
		}
		return v
	}
	last := len(p.Vars) - 1
	for _, c := range []struct {
		name string
		edit func(*vmprog.SymmetryFacts)
		want string
	}{
		// The last variable read as process 1's entry of an array a cell
		// earlier: it lands past the end whenever perm[1] > 1.
		{"cell past the last variable", func(s *vmprog.SymmetryFacts) {
			s.CellForms[last] = vmprog.SymForm{A: int64(last) - 1, B: 1}
		}, "past the last"},
		// tail (variable 0) read as process 0's entry of an array at 0:
		// under [1 0 2] it lands on cell 1, next[0], where next[1] lands.
		{"colliding cells", func(s *vmprog.SymmetryFacts) {
			s.CellForms[cell("tail")] = vmprog.SymForm{A: int64(cell("tail")), B: 1}
		}, "send variables"},
		{"B = 2", func(s *vmprog.SymmetryFacts) {
			s.ValForms[cell("tail")].B = 2
		}, "B=2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := por.Facts(p, n)
			if err != nil {
				t.Fatal(err)
			}
			if f.Symmetry == nil {
				t.Fatal("mcs has no symmetry facts")
			}
			c.edit(f.Symmetry)
			eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				t.Fatal(err)
			}
			err = eng.UsePruning(f)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("UsePruning = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// walkStates returns count states as the search hands them to the
// canonicalizer: successors of canonical states, met on seeded random runs
// of eng from the initial state that continue from each successor's
// canonical form and restart once no decision is enabled. Unlike a capped
// breadth-first search of a large graph, the runs reach every depth.
func walkStates(eng *vmprog.Engine, seed int64, count int) []*vmprog.State {
	rng := rand.New(rand.NewSource(seed))
	var out []*vmprog.State
	s := eng.Initial()
	for len(out) < count {
		decs := eng.EnabledDecisions(s, vmprog.CrashOpts{})
		if len(decs) == 0 {
			s = eng.Initial()
			continue
		}
		if err := eng.Apply(s, decs[rng.Intn(len(decs))]); err != nil {
			s = eng.Initial()
			continue
		}
		out = append(out, s.Clone())
		s, _ = eng.CanonicalState(s)
	}
	return out
}

// BenchmarkCanonEncode times one canonicalization of a successor sampled
// from random runs of mcs at n=4 (the explore-sym workload's 24
// permutations) and synthetic at n=3: the per-layer cost of the symmetry
// reduction. It fails if a call allocates.
func BenchmarkCanonEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"mcs", 4}, {"synthetic", 3}} {
		b.Run(fmt.Sprintf("%s/n=%d", c.name, c.n), func(b *testing.B) {
			eng := symEngine(b, c.name, c.n)
			states := walkStates(eng, 1, 4096)
			var dst []uint64
			run := func(s *vmprog.State) { dst, _ = vmprog.CanonEncode(eng, dst[:0], s) }
			i := 0
			if a := testing.AllocsPerRun(len(states), func() { run(states[i%len(states)]); i++ }); a != 0 {
				b.Fatalf("canonEncode makes %v allocations per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(states[i%len(states)])
			}
		})
	}
}
