package vmprog

import (
	"context"
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
