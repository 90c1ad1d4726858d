package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/check"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

const (
	// sampleSize is the number of distinct canonical states in a check
	// workload's state sample, drawn from the first searchCap states a
	// breadth-first search discovers. The cap holds the whole canonical
	// space of explore-sym (31,831 states without ample sets) and of
	// crash-graph (510,018), and the first 47 layers of explore-asym's.
	sampleSize = 2048
	searchCap  = 1 << 19
	// opChunk is how many items one timed pass covers: few enough that they
	// stay in cache, as the state the search has just built does.
	opChunk = 64
	// opBatch is the least time one batch of an operation runs;
	// opBatches batches are timed and their median reported.
	opBatch   = 20 * time.Millisecond
	opBatches = 5
	// victimSteps bounds the round-robin run of the construct victim.
	victimSteps = 1 << 24
)

// Sinks keep timed results live so the compiler cannot drop the calls.
var (
	sinkState *vmprog.State
	sinkHash  uint64
	sinkDecs  []tso.Decision
	sinkErr   error
	sinkFacts *vmprog.PruneFacts
)

// opCost times op over items items, in passes over chunks of opChunk.
// Before each timed pass, prep runs untimed on the same chunk (op itself
// when prep is nil), so the chunk is in cache. Passes over all items repeat
// until a batch holds opBatch of op time; opCost returns the median over
// opBatches batches of the time per item, and the heap allocations per item
// of one further pass, as runtime/metrics counts them. A collection before
// each reading makes the count exact: it flushes every P's allocation
// counts, which the runtime otherwise credits a span at a time.
//
// When op does base's work and more, base is timed on each chunk right
// before op, and opCost returns op's costs net of base's: the paired
// difference cancels the drift that two separate timings would leave in a
// small remainder.
func opCost(items int, prep, base, op func(lo, hi int)) (nsPerItem, allocsPerItem float64) {
	if prep == nil {
		prep = op
	}
	if base == nil {
		base = func(int, int) {}
	}
	per := make([]float64, opBatches)
	for b := range per {
		var spent, baseSpent time.Duration
		done := 0
		for spent < opBatch {
			for lo := 0; lo < items; lo += opChunk {
				hi := min(lo+opChunk, items)
				prep(lo, hi)
				t := time.Now()
				base(lo, hi)
				t1 := time.Now()
				op(lo, hi)
				spent += time.Since(t1)
				baseSpent += t1.Sub(t)
			}
			done += items
		}
		per[b] = float64((spent - baseSpent).Nanoseconds()) / float64(done)
	}
	read := func() []float64 {
		runtime.GC()
		return readGo()
	}
	prep(0, items)
	g0 := read()
	base(0, items)
	g1 := read()
	op(0, items)
	g2 := read()
	return median(per), (goBetween(g1, g2).Allocs - goBetween(g0, g1).Allocs) / float64(items)
}

// timeOp runs opCost inside a span named name and records the results as
// the span's counts.
func timeOp(rec *recorder, parent int, name string, items int, prep, base, op func(lo, hi int)) (nsPerItem, allocsPerItem float64) {
	id := rec.begin(parent, name)
	nsPerItem, allocsPerItem = opCost(items, prep, base, op)
	rec.end(id, map[string]float64{"items": float64(items), "ns_per_item": nsPerItem, "allocs_per_item": allocsPerItem})
	return nsPerItem, allocsPerItem
}

// sampleStates searches the canonical state space breadth-first from the
// initial state through the engine's public API, following every enabled
// decision, until it is exhausted or searchCap states are discovered. It
// returns a seeded uniform sample of sampleSize discovered states and the
// number discovered. The check itself skips the decisions outside an ample
// set, so its states are a subset of these.
func sampleStates(eng *vmprog.Engine, crash vmprog.CrashOpts, rng *rand.Rand) ([]*vmprog.State, int, error) {
	root, _ := eng.CanonicalState(eng.Initial())
	seen := map[uint64]struct{}{eng.Hash(root): {}}
	sample := []*vmprog.State{root}
	found := 1
	front := []*vmprog.State{root}
search:
	for len(front) > 0 {
		var next []*vmprog.State
		for _, s := range front {
			for _, d := range eng.EnabledDecisions(s, crash) {
				c := s.Clone()
				if err := eng.Apply(c, d); err != nil {
					return nil, 0, fmt.Errorf("sample search: %w", err)
				}
				cc, _ := eng.CanonicalState(c)
				h := eng.Hash(cc)
				if _, ok := seen[h]; ok {
					continue
				}
				if found == searchCap {
					break search
				}
				seen[h] = struct{}{}
				found++
				next = append(next, cc)
				// Reservoir sampling: every discovered state is kept with
				// the same probability.
				if len(sample) < sampleSize {
					sample = append(sample, cc)
				} else if j := rng.Intn(found); j < sampleSize {
					sample[j] = cc
				}
			}
		}
		front = next
	}
	return sample, found, nil
}

// engineCosts times, on a seeded sample of the workload's reachable
// canonical states, the engine operations a check makes: per expanded state
// EnabledDecisions, and per transition a Clone, an Apply, a CanonicalState
// and a Hash. It also times por.Facts. The returned map is keyed by
// per-layer metric name.
func engineCosts(rec *recorder, parent int, w *workload, p prepared, seed int64) (map[string]float64, error) {
	eng, err := vmprog.NewEngineOrdering(p.prog, w.n, tso.TSO)
	if err != nil {
		return nil, err
	}
	if err := eng.UsePruning(check.ReduceFacts(p.facts, check.ReduceFull)); err != nil {
		return nil, err
	}
	var crash vmprog.CrashOpts
	if w.crash != nil {
		crash = *w.crash
	}

	id := rec.begin(parent, "vmprog.sample")
	states, found, err := sampleStates(eng, crash, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	// One transition per enabled decision of every sampled state: its source,
	// its decision, the successor Apply makes and that successor's canonical
	// form, as the search produces them.
	var srcs, kids, canon []*vmprog.State
	var decs []tso.Decision
	for _, s := range states {
		for _, d := range eng.EnabledDecisions(s, crash) {
			c := s.Clone()
			if err := eng.Apply(c, d); err != nil {
				return nil, fmt.Errorf("sample transition: %w", err)
			}
			cc, _ := eng.CanonicalState(c)
			srcs, decs, kids, canon = append(srcs, s), append(decs, d), append(kids, c), append(canon, cc)
		}
	}
	rec.end(id, map[string]float64{"discovered": float64(found), "states": float64(len(states)), "transitions": float64(len(decs))})

	m := make(map[string]float64)
	m["vmprog.clone_ns"], m["vmprog.clone_allocs"] = timeOp(rec, parent, "vmprog.Clone", len(states), nil, nil, func(lo, hi int) {
		for _, s := range states[lo:hi] {
			sinkState = s.Clone()
		}
	})
	m["vmprog.decisions_ns"], _ = timeOp(rec, parent, "vmprog.EnabledDecisions", len(states), nil, nil, func(lo, hi int) {
		for _, s := range states[lo:hi] {
			sinkDecs = eng.EnabledDecisions(s, crash)
		}
	})
	scratch := make([]*vmprog.State, len(srcs))
	m["vmprog.apply_ns"], _ = timeOp(rec, parent, "vmprog.Apply", len(srcs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			scratch[i] = srcs[i].Clone()
		}
	}, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sinkErr = eng.Apply(scratch[i], decs[i])
		}
	})
	// CanonicalState clones its input first, which the search does not; the
	// clone of the same successors is the base subtracted.
	m["vmprog.canon_ns"], m["vmprog.canon_allocs"] = timeOp(rec, parent, "vmprog.CanonicalState", len(kids), nil, func(lo, hi int) {
		for _, c := range kids[lo:hi] {
			sinkState = c.Clone()
		}
	}, func(lo, hi int) {
		for _, c := range kids[lo:hi] {
			sinkState, _ = eng.CanonicalState(c)
		}
	})
	m["vmprog.hash_ns"], _ = timeOp(rec, parent, "vmprog.Hash", len(canon), nil, nil, func(lo, hi int) {
		for _, c := range canon[lo:hi] {
			sinkHash ^= eng.Hash(c)
		}
	})
	factsNS, _ := timeOp(rec, parent, "por.Facts", 1, nil, nil, func(int, int) {
		sinkFacts, sinkErr = por.Facts(p.prog, w.n)
	})
	m["por.facts_s"] = factsNS / 1e9
	return m, nil
}

// victimCosts runs the construct victim round-robin at constructN processes
// with tso.Run, then replays that execution with process 0 erased, and
// returns the time per event of each.
func victimCosts(rec *recorder, parent int, p prepared) (map[string]float64, error) {
	sim, err := tso.NewSimulator(tso.Config{N: constructN}, p.build)
	if err != nil {
		return nil, err
	}
	defer sim.Kill()
	id := rec.begin(parent, "tso.Run")
	t := time.Now()
	rr, err := tso.Run(sim, tso.NewRoundRobin(), victimSteps)
	runNS := float64(time.Since(t).Nanoseconds())
	events := len(sim.Execution().Events)
	rec.end(id, map[string]float64{"events": float64(events)})
	if err != nil {
		return nil, fmt.Errorf("victim round-robin run: %w", err)
	}
	if !rr.Completed || rr.Violation != nil {
		return nil, fmt.Errorf("victim round-robin run: completed=%t violation=%v", rr.Completed, rr.Violation)
	}

	id = rec.begin(parent, "tso.Replay")
	t = time.Now()
	replayed, err := sim.Replay(map[tso.ProcID]bool{0: true})
	replayNS := float64(time.Since(t).Nanoseconds())
	if err != nil {
		return nil, fmt.Errorf("victim replay: %w", err)
	}
	defer replayed.Kill()
	replayEvents := len(replayed.Execution().Events)
	rec.end(id, map[string]float64{"events": float64(replayEvents)})
	return map[string]float64{
		"tso.step_ns":             runNS / float64(events),
		"tso.replay_ns_per_event": replayNS / float64(replayEvents),
	}, nil
}
