package check

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/vmprog"
)

// heapAllocs returns the number of heap allocations the process has made.
// The collection first flushes every P's allocation counts, which the
// runtime otherwise credits a span at a time, so the count is exact.
func heapAllocs() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// TestFrontierAllocationGuard holds the frontier engine's successor path to
// its allocation budget: a fully reduced one-worker check makes at most one
// heap allocation per transition. Successors are applied to worker scratch,
// canonicalized straight into their flat encoding and copied into a shard
// arena only when new, so the allocations left are the amortized growth of
// the seen-sets, queues and arenas and the per-layer set-up. It counts
// allocations, not time, so a loaded host cannot make it flaky. tournament
// is the asymmetric path (Lookup builds its fixed four-leaf tree; three
// processes contend in it) and mcs the symmetric one, canonicalized over
// all 3! permutations.
func TestFrontierAllocationGuard(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    int
	}{{"tournament", 3}, {"mcs", 3}} {
		p, err := vmprog.Lookup(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		facts, err := por.Facts(p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		before := heapAllocs()
		res, err := Verify(ctx, p, tc.n, WithReduce(ReduceFull), WithFacts(facts), WithWorkers(1))
		allocs := heapAllocs() - before
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.name, tc.n, err)
		}
		if !res.Complete || res.Violation {
			t.Fatalf("%s n=%d: complete=%v violation=%v, want a complete clean run", tc.name, tc.n, res.Complete, res.Violation)
		}
		per := float64(allocs) / float64(res.Transitions)
		t.Logf("%s n=%d: %d allocations over %d transitions (%.3f per transition)", tc.name, tc.n, allocs, res.Transitions, per)
		if per > 1 {
			t.Errorf("%s n=%d: %.3f heap allocations per transition, budget 1", tc.name, tc.n, per)
		}
	}
}
