package vmprog_test

import (
	"testing"

	"priceadaptive/internal/vmprog"
)

// BenchmarkExpand times the frontier engines' successor path a state at a
// time: load a state from its canonical encoding and generate its
// successors under every enabled decision. The states are the first 4096
// of a breadth-first search of tournament at n=4 (the explore-asym
// workload's program) and of mcs at n=4 (explore-sym's, canonicalized over
// 24 permutations), under their full facts. It reports the time per
// successor and fails if an expander that has grown its buffers allocates.
func BenchmarkExpand(b *testing.B) {
	for _, name := range []string{"tournament", "mcs"} {
		b.Run(name+"/n=4", func(b *testing.B) {
			eng := symEngine(b, name, 4)
			var encs [][]uint64
			for _, s := range vmprog.BFSStates(eng, vmprog.CrashOpts{}, 4096) {
				enc, _ := vmprog.CanonEncode(eng, nil, s)
				encs = append(encs, enc)
			}
			x := vmprog.NewExpander(eng)
			for _, enc := range encs {
				x.Expand(enc)
			}
			i := 0
			if a := testing.AllocsPerRun(len(encs), func() { x.Expand(encs[i%len(encs)]); i++ }); a != 0 {
				b.Fatalf("a grown expander makes %v allocations per state, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			succ := 0
			for i := 0; i < b.N; i++ {
				succ += x.Expand(encs[i%len(encs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(succ), "ns/successor")
		})
	}
}
