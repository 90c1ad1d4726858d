package vmprog

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"priceadaptive/internal/tso"
)

// TestRegistryBuilds instantiates every registered program at a couple of
// process counts and revalidates.
func TestRegistryBuilds(t *testing.T) {
	for _, e := range Registry() {
		for _, n := range []int{2, 3} {
			if e.FixedN > 0 {
				n = e.FixedN
			}
			p, err := e.Build(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", e.Name, n, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s n=%d: validate: %v", e.Name, n, err)
			}
			if e.FixedN > 0 {
				break
			}
		}
	}
}

// TestRegistryExclusion model-checks every registered program exhaustively
// at its smallest supported size: correct locks admit no exclusion
// violation, the deliberately broken variants must admit one.
func TestRegistryExclusion(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			n := 2
			if e.FixedN > 0 {
				n = e.FixedN
			}
			budget := 1 << 22
			if n > 2 && testing.Short() {
				t.Skip("large state space in -short mode")
			}
			p, err := e.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Check(context.Background(), ParallelOpts{MaxStates: budget})
			if err != nil {
				t.Fatal(err)
			}
			if e.Broken {
				if !res.Violation {
					t.Fatalf("%s: broken variant not caught (states=%d complete=%v)",
						e.Name, res.States, res.Complete)
				}
				return
			}
			if res.Violation {
				t.Fatalf("%s: unexpected exclusion violation, schedule %v", e.Name, res.Schedule)
			}
			if !res.Complete {
				t.Fatalf("%s: exploration incomplete at %d states; raise budget", e.Name, res.States)
			}
		})
	}
}

// TestLookupRejectsUnsupportedN pins that a fixed-size program is looked up
// only at its own n: an engine built at any other n would run the program
// outside its domain (peterson at n=3 indexes flag[-1]; tournament at n=6
// would put three processes on one leaf).
func TestLookupRejectsUnsupportedN(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, want int
	}{{"peterson", 3, 2}, {"dekker", 1, 2}, {"tournament", 6, 4}} {
		if _, err := Lookup(tc.name, tc.n); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("only n=%d", tc.want)) {
			t.Errorf("Lookup(%s, %d): %v, want an error naming n=%d", tc.name, tc.n, err, tc.want)
		}
		if _, err := Lookup(tc.name, tc.want); err != nil {
			t.Errorf("Lookup(%s, %d): %v", tc.name, tc.want, err)
		}
	}
}

// TestTournamentSizes model-checks the size-parametric tournament off the
// registry's n=4, on trees with an unused leaf (n=3) and with one level
// (n=2): no schedule violates exclusion, and the exploration completes.
func TestTournamentSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		p, err := Tournament(n)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineOrdering(p, n, tso.TSO)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Check(context.Background(), ParallelOpts{MaxStates: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation || !res.Complete {
			t.Fatalf("tournament n=%d: violation=%v complete=%v after %d states", n, res.Violation, res.Complete, res.States)
		}
	}
}
