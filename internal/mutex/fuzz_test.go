package mutex

import (
	"testing"

	"priceadaptive/internal/tso"
)

// brokenLocks are the registry's deliberately TSO-broken variants: the
// fuzzer finding an exclusion violation on one of these is the expected
// outcome, not a failure.
var brokenLocks = map[string]bool{
	"bakery-weak":      true,
	"peterson-nofence": true,
}

// FuzzScheduleLocks interprets fuzz input as (algorithm selector, schedule)
// over the whole lock registry: data[0] indexes Names(), each following byte
// picks the process to step (or commit from, when its buffer allows). Every
// correct lock must preserve mutual exclusion under every schedule prefix,
// and replay must reproduce the execution exactly. The seed corpus holds one
// entry per built-in lock so CI exercises each algorithm even with a tiny
// -fuzztime budget (and `go test` alone runs all seeds).
//
//	go test ./internal/mutex -run='^$' -fuzz FuzzScheduleLocks -fuzztime 30s
func FuzzScheduleLocks(f *testing.F) {
	for i := range Names() {
		// Round-robin then biased schedules per lock.
		f.Add([]byte{byte(i), 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
		f.Add([]byte{byte(i), 0, 0, 0, 0, 0, 5, 1, 1, 1, 1, 1, 6, 2, 2})
	}
	names := Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := names[int(data[0])%len(names)]
		factory := Registry()[name]
		sched := data[1:]
		if len(sched) > 256 {
			sched = sched[:256] // bound per-input work
		}
		// Locks disagree on admissible sizes (peterson wants exactly 2);
		// try 3, fall back to 2, and give up on anything pickier.
		sim, n, err := newSim(factory, 3)
		if err != nil {
			if sim, n, err = newSim(factory, 2); err != nil {
				return
			}
		}
		defer sim.Kill()
		for _, b := range sched {
			p := tso.ProcID(int(b) % n)
			if sim.Done(p) {
				continue
			}
			if b&4 != 0 && sim.BufferSize(p) > 0 && sim.ModeOf(p) == tso.ModeRead {
				if _, err := sim.Commit(p); err != nil {
					t.Fatalf("%s: commit: %v", name, err)
				}
				continue
			}
			if _, err := sim.Step(p); err != nil {
				t.Fatalf("%s: step: %v", name, err)
			}
		}
		if v := sim.ExclusionViolation(); v != nil && !brokenLocks[name] {
			t.Fatalf("%s violated exclusion under fuzzed schedule: %v", name, v)
		}
		rs, err := sim.Replay(nil)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		defer rs.Kill()
		if err := tso.VerifyErasure(sim.Execution(), rs.Execution(), nil); err != nil {
			t.Fatalf("%s: replay diverged: %v", name, err)
		}
	})
}

func newSim(factory Factory, n int) (*tso.Simulator, int, error) {
	sim, err := tso.NewSimulator(tso.Config{N: n}, Build(factory))
	return sim, n, err
}
