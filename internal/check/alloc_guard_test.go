package check

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/vmprog"
)

// heapAllocs returns the number of heap allocations the process has made
// and the bytes they allocated. The collection first flushes every P's
// allocation counts, which the runtime otherwise credits a span at a time,
// so the counts are exact.
func heapAllocs() (objects, bytes uint64) {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// TestFrontierAllocationGuard holds the frontier engines' successor paths to
// their allocation budgets: a fully reduced check makes at most one heap
// allocation per transition, and allocates at most a row's byte budget per
// transition. Each successor is a patch of its parent: the decision is
// applied to the worker's decoded parent in place, the successor's flat
// encoding is spliced from the parent's and canonicalized in place, the
// decision is undone, and the encoding is copied into a shard arena only
// when new. So the allocations left are the growth of the seen-sets,
// queues, arenas, breadcrumb columns and edge records and the per-layer
// set-up. It
// counts allocations, not time, so a loaded host cannot make it flaky.
// tournament is the asymmetric path (Lookup builds its fixed four-leaf tree;
// three processes contend in it) and mcs the symmetric one, canonicalized
// over all 3! permutations; their byte budgets sit just above what they
// allocated when the breadcrumb columns were plain slices (89.6 and 254.7
// bytes per transition), so small graphs cannot end up paying for storage
// sized for large ones. bakery under two crashes is the recoverability
// check at one and two workers (15,566 states, 44,219 transitions): with a
// (from, to) pair per edge and the breadcrumb columns in slices grown by
// copying, it allocated 105 and 118-125 bytes per transition.
func TestFrontierAllocationGuard(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		n       int
		crash   *vmprog.CrashOpts // nil: Verify; else VerifyRecoverable under it
		workers int
		bytes   float64 // byte budget per transition
	}{
		{"tournament", 3, nil, 1, 90},
		{"mcs", 3, nil, 1, 260},
		{"bakery", 2, &vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}, 1, 80},
		{"bakery", 2, &vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}, 2, 100},
	} {
		p, err := vmprog.Lookup(tc.name, tc.n)
		if tc.name == "tournament" {
			p, err = vmprog.Tournament(tc.n) // the registry's tournament is fixed at n=4
		}
		if err != nil {
			t.Fatal(err)
		}
		facts, err := por.Facts(p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithReduce(ReduceFull), WithFacts(facts), WithWorkers(tc.workers)}
		var transitions int
		objs0, bytes0 := heapAllocs()
		if tc.crash == nil {
			res, err := Verify(ctx, p, tc.n, opts...)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, tc.n, err)
			}
			if !res.Complete || res.Violation {
				t.Fatalf("%s n=%d: complete=%v violation=%v, want a complete clean run", tc.name, tc.n, res.Complete, res.Violation)
			}
			transitions = res.Transitions
		} else {
			v, err := VerifyRecoverable(ctx, p, tc.n, append(opts, WithCrashes(*tc.crash))...)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, tc.n, err)
			}
			if !v.Complete || !v.Recoverable {
				t.Fatalf("%s n=%d: %s, want a complete RECOVERABLE verdict", tc.name, tc.n, v)
			}
			transitions = v.Transitions
		}
		objs1, bytes1 := heapAllocs()
		per := float64(objs1-objs0) / float64(transitions)
		perB := float64(bytes1-bytes0) / float64(transitions)
		t.Logf("%s n=%d crash=%v workers=%d: %d allocations, %d bytes over %d transitions (%.3f allocations, %.1f bytes per transition)",
			tc.name, tc.n, tc.crash != nil, tc.workers, objs1-objs0, bytes1-bytes0, transitions, per, perB)
		if per > 1 {
			t.Errorf("%s n=%d workers=%d: %.3f heap allocations per transition, budget 1", tc.name, tc.n, tc.workers, per)
		}
		if perB > tc.bytes {
			t.Errorf("%s n=%d workers=%d: %.1f heap bytes per transition, budget %.0f", tc.name, tc.n, tc.workers, perB, tc.bytes)
		}
	}
}
