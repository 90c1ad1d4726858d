// Benchmark harness: one benchmark per experiment (see DESIGN.md
// and EXPERIMENTS.md) plus micro-benchmarks of the simulator substrate.
// Each experiment benchmark regenerates the corresponding paper result and
// reports its headline number as a custom metric, so `go test -bench=.`
// reproduces the full evaluation.
package priceadaptive_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/bounds"
	"priceadaptive/internal/check"
	"priceadaptive/internal/core"
	"priceadaptive/internal/graphs"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// BenchmarkE1Construction regenerates Figure 1: one full run of the
// three-phase inductive construction against the adaptive read/write lock.
func BenchmarkE1Construction(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var forced int
			for i := 0; i < b.N; i++ {
				res, err := adversary.Run(context.Background(), adversary.Config{
					N:         n,
					Algorithm: mutex.Build(mutex.NewSynthetic),
					F:         bounds.Affine{A: 16, C: 10},
				})
				if err != nil {
					b.Fatal(err)
				}
				forced = res.FencesForced
			}
			b.ReportMetric(float64(forced), "fences-forced")
		})
	}
}

// BenchmarkE2FencesForced regenerates Theorem 1's content: fences forced as
// N grows.
func BenchmarkE2FencesForced(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var forced int
			for i := 0; i < b.N; i++ {
				res, err := adversary.Run(context.Background(), adversary.Config{
					N:         n,
					Algorithm: mutex.Build(mutex.NewSynthetic),
					F:         bounds.Affine{A: 16, C: 10},
				})
				if err != nil {
					b.Fatal(err)
				}
				forced = res.FencesForced
			}
			b.ReportMetric(float64(forced), "fences-forced")
		})
	}
}

// BenchmarkE3Separation regenerates the Corollary 1 separation: fence
// complexity per passage vs contention for each lock family.
func BenchmarkE3Separation(b *testing.B) {
	algs := []struct {
		name    string
		factory mutex.Factory
	}{
		{"bakery", mutex.NewBakery},
		{"tournament", mutex.NewTournament},
		{"caschain", mutex.NewCASChain},
		{"synthetic", mutex.NewSynthetic},
	}
	for _, a := range algs {
		for _, k := range []int{2, 8, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", a.name, k), func(b *testing.B) {
				var fences int
				for i := 0; i < b.N; i++ {
					sim, err := tso.NewSimulator(tso.Config{N: k}, mutex.Build(a.factory))
					if err != nil {
						b.Fatal(err)
					}
					acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
					res, err := tso.Run(sim, tso.NewRoundRobin(), 100_000_000)
					if err != nil || res.Violation != nil {
						sim.Kill()
						b.Fatalf("%v / %v", err, res.Violation)
					}
					fences = acc.Summarize().MaxFences
					sim.Kill()
				}
				b.ReportMetric(float64(fences), "fences/passage")
			})
		}
	}
}

// BenchmarkE4LinearBound regenerates Corollary 2's table.
func BenchmarkE4LinearBound(b *testing.B) {
	for _, l2n := range []float64{64, 1 << 20, 1e18} {
		b.Run(fmt.Sprintf("log2N=%g", l2n), func(b *testing.B) {
			var forced int
			for i := 0; i < b.N; i++ {
				forced = bounds.ForcedFences(bounds.Linear{C: 1}, l2n, 500)
			}
			b.ReportMetric(float64(forced), "fences-forced")
			b.ReportMetric(bounds.Corollary2Rate(1, l2n), "closed-form")
		})
	}
}

// BenchmarkE5ExpBound regenerates Corollary 3's table.
func BenchmarkE5ExpBound(b *testing.B) {
	for _, l2n := range []float64{64, 1 << 20, 1e18} {
		b.Run(fmt.Sprintf("log2N=%g", l2n), func(b *testing.B) {
			var forced int
			for i := 0; i < b.N; i++ {
				forced = bounds.ForcedFences(bounds.Exponential{C: 1}, l2n, 500)
			}
			b.ReportMetric(float64(forced), "fences-forced")
			b.ReportMetric(bounds.Corollary3Rate(1, l2n), "closed-form")
		})
	}
}

// BenchmarkE6Reduction regenerates Lemma 9: the one-time mutex built from a
// counter costs one counter operation plus O(1) fences.
func BenchmarkE6Reduction(b *testing.B) {
	rep := func() *core.Report {
		r, err := core.E6Reduction(context.Background(), 8)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("N=8", func(b *testing.B) {
		var rows int
		for i := 0; i < b.N; i++ {
			rows = len(rep().Rows)
		}
		b.ReportMetric(float64(rows), "backends")
	})
}

// BenchmarkE7RMRModels regenerates the Section 2 cost-model comparison.
func BenchmarkE7RMRModels(b *testing.B) {
	for _, model := range rmr.Models() {
		for _, n := range []int{4, 16} {
			b.Run(fmt.Sprintf("bakery/%s/N=%d", model, n), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					simModel := tso.CC
					if model == rmr.ModelDSM {
						simModel = tso.DSM
					}
					sim, err := tso.NewSimulator(tso.Config{N: n, Model: simModel}, mutex.Build(mutex.NewBakery))
					if err != nil {
						b.Fatal(err)
					}
					acc := rmr.Attach(sim, model)
					if _, err := tso.Run(sim, tso.NewRoundRobin(), 100_000_000); err != nil {
						sim.Kill()
						b.Fatal(err)
					}
					mean = acc.Summarize().MeanRMRs
					sim.Kill()
				}
				b.ReportMetric(mean, "rmr/passage")
			})
		}
	}
}

// BenchmarkE8FenceElision regenerates the fence-elision failure: how fast a
// TSO schedule breaks fence-free Peterson.
func BenchmarkE8FenceElision(b *testing.B) {
	b.Run("peterson-nofence", func(b *testing.B) {
		var seq int
		for i := 0; i < b.N; i++ {
			sim, err := tso.NewSimulator(tso.Config{N: 2}, mutex.Build(mutex.NewPetersonNoFences))
			if err != nil {
				b.Fatal(err)
			}
			res, _ := tso.Run(sim, tso.NewRoundRobin(), 10000)
			if res.Violation == nil {
				sim.Kill()
				b.Fatal("expected violation")
			}
			seq = res.Violation.Seq
			sim.Kill()
		}
		b.ReportMetric(float64(seq), "events-to-violation")
	})
}

// BenchmarkSimulatorStep measures the cost of one simulated event: with a
// Step per event, a request/grant round trip each, and with one StepWhile
// per run of events, in which the process runs ahead on its own goroutine.
// A fresh simulator every simEvents events keeps the execution logs small
// whatever b.N is.
func BenchmarkSimulatorStep(b *testing.B) {
	const simEvents = 1 << 16
	newSim := func(b *testing.B) *tso.Simulator {
		var v *tso.Var
		sim, err := tso.NewSimulator(tso.Config{N: 1, Passages: 1 << 30, AllowConcurrentCS: true},
			func(s *tso.Simulator) (tso.Program, error) {
				v = s.Memory().NewVar("x")
				return func(p *tso.Proc) {
					p.Read(v)
					p.CS()
				}, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		return sim
	}
	bench := func(b *testing.B, run func(sim *tso.Simulator, k int) error) {
		for done := 0; done < b.N; done += simEvents {
			b.StopTimer()
			sim := newSim(b)
			b.StartTimer()
			if err := run(sim, min(simEvents, b.N-done)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sim.Kill()
			b.StartTimer()
		}
	}
	b.Run("Step", func(b *testing.B) {
		bench(b, func(sim *tso.Simulator, k int) error {
			for i := 0; i < k; i++ {
				if _, err := sim.Step(0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("StepWhile", func(b *testing.B) {
		bench(b, func(sim *tso.Simulator, k int) error {
			if n, err := sim.StepWhile(0, k, nil); err != nil || n != k {
				return fmt.Errorf("StepWhile ran %d of %d events: %v", n, k, err)
			}
			return nil
		})
	})
}

// BenchmarkReplayErasure measures the cost of erasing a process from an
// execution by replay, as done throughout the construction.
func BenchmarkReplayErasure(b *testing.B) {
	build := func(s *tso.Simulator) (tso.Program, error) {
		vs := s.Memory().NewArray("v", 8)
		return func(p *tso.Proc) {
			for i := 0; i < 8; i++ {
				p.Read(vs[(int(p.ID())+i)%8])
				p.Write(vs[p.ID()%8], uint64(i))
			}
			p.Fence()
			p.CS()
		}, nil
	}
	sim, err := tso.NewSimulator(tso.Config{N: 8, AllowConcurrentCS: true}, build)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Kill()
	if _, err := tso.Run(sim, tso.NewRoundRobin(), 1_000_000); err != nil {
		b.Fatal(err)
	}
	banned := map[tso.ProcID]bool{7: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sim.Replay(banned)
		if err != nil {
			b.Fatal(err)
		}
		rs.Kill()
	}
}

// BenchmarkTuranIndependentSet measures the greedy independent-set routine
// on a construction-sized conflict graph.
func BenchmarkTuranIndependentSet(b *testing.B) {
	ids := make([]tso.ProcID, 256)
	for i := range ids {
		ids[i] = tso.ProcID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs.New(ids)
		for j := 0; j < 256; j++ {
			g.AddEdge(tso.ProcID(j), tso.ProcID((j*7+3)%256))
			g.AddEdge(tso.ProcID(j), tso.ProcID((j*13+11)%256))
		}
		if got := len(g.IndependentSet()); got < g.TuranBound() {
			b.Fatalf("independent set %d below Turán bound %d", got, g.TuranBound())
		}
	}
}

// BenchmarkBoundsForcedFences measures the Theorem 1 solver.
func BenchmarkBoundsForcedFences(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink = bounds.ForcedFences(bounds.Linear{C: 1}, 1e18, 400)
	}
	_ = sink
	if math.IsNaN(float64(sink)) {
		b.Fatal("unreachable")
	}
}

// BenchmarkModelChecker measures the bounded exhaustive verifier: full
// verification of a fenced two-process Peterson passage.
func BenchmarkModelChecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := check.Exhaustive{CollapseSpins: true, MaxStates: 500000, MaxDepth: 256}.
			Verify(context.Background(), tso.Config{N: 2}, mutex.Build(mutex.NewPeterson))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Complete || rep.Violation != nil {
			b.Fatalf("complete=%v violation=%v", rep.Complete, rep.Violation)
		}
		b.ReportMetric(float64(rep.States), "states")
	}
}

// BenchmarkViolationMinimization measures delta-debugging a PSO
// counterexample down to its minimal schedule.
func BenchmarkViolationMinimization(b *testing.B) {
	cfg := tso.Config{N: 2, Ordering: tso.PSO}
	rep, err := check.Exhaustive{CollapseSpins: true, MaxStates: 300000, MaxDepth: 256}.
		Verify(context.Background(), cfg, mutex.Build(mutex.NewBakeryWeakDoorway))
	if err != nil || rep.Violation == nil {
		b.Fatalf("no violation: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min, err := check.Minimize(context.Background(), cfg, mutex.Build(mutex.NewBakeryWeakDoorway), rep.Schedule)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(min)), "decisions")
	}
}

// BenchmarkE10Adaptivity measures the adaptivity-function sweep for the
// adaptive CAS-chain lock.
func BenchmarkE10Adaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.E10Adaptivity(context.Background(), []int{16, 64}, []int{1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkYangAndersonPassage measures full-contention passages of the
// local-spin tournament.
func BenchmarkYangAndersonPassage(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := tso.NewSimulator(tso.Config{N: n}, mutex.Build(mutex.NewYangAnderson))
				if err != nil {
					b.Fatal(err)
				}
				res, err := tso.Run(sim, tso.NewRoundRobin(), 100_000_000)
				if err != nil || res.Violation != nil {
					sim.Kill()
					b.Fatalf("%v/%v", err, res.Violation)
				}
				sim.Kill()
			}
		})
	}
}

// BenchmarkExactTheorem1 measures the math/big cross-check of the bound.
func BenchmarkExactTheorem1(b *testing.B) {
	n := bounds.PowerOfTwo(65536)
	for i := 0; i < b.N; i++ {
		bounds.ForcedFencesExact(bounds.Linear{C: 1}, n, 50)
	}
}

// BenchmarkFastVsReplayChecker compares the two model checkers on the same
// verification task (fenced Peterson, complete TSO verification). The fast
// VM engine avoids replay-based backtracking entirely.
func BenchmarkFastVsReplayChecker(b *testing.B) {
	b.Run("vmprog-fast", func(b *testing.B) {
		p := vmprog.MustPeterson(true)
		for i := 0; i < b.N; i++ {
			eng, err := vmprog.NewEngineOrdering(p, 2, tso.TSO)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Check(context.Background(), vmprog.ParallelOpts{})
			if err != nil || !res.Complete || res.Violation {
				b.Fatalf("%v %+v", err, res)
			}
			b.ReportMetric(float64(res.States), "states")
		}
	})
	b.Run("replay-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := check.Exhaustive{CollapseSpins: true, MaxStates: 500000, MaxDepth: 256}.
				Verify(context.Background(), tso.Config{N: 2}, mutex.Build(mutex.NewPeterson))
			if err != nil || !rep.Complete || rep.Violation != nil {
				b.Fatalf("%v %+v", err, rep)
			}
			b.ReportMetric(float64(rep.States), "states")
		}
	})
}

// BenchmarkE11VerificationMatrix measures the full verification matrix.
func BenchmarkE11VerificationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.E11VerificationMatrix(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 16 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}
