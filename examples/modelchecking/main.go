// Modelchecking: verify locks exhaustively over TSO and PSO schedules with
// the repository's two model checkers, and watch them produce minimized
// counterexamples - including one that refutes a plausible-sounding informal
// argument.
package main

import (
	"context"
	"fmt"
	"log"

	"priceadaptive/internal/check"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func main() {
	// 1. The replay-based checker (goroutine engine): complete verification
	// of every reachable TSO state of a fenced Peterson passage.
	fmt.Println("1. fenced Peterson, TSO, goroutine-engine checker:")
	rep, err := check.Exhaustive{CollapseSpins: true, MaxStates: 500000, MaxDepth: 256}.Verify(context.Background(), tso.Config{N: 2}, mutex.Build(mutex.NewPeterson))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d states explored, complete=%v, violation=%v\n\n",
		rep.States, rep.Complete, rep.Violation != nil)

	// 2. The fast VM engine: the standard bakery is TSO-safe over its
	// ENTIRE state space, and PSO-broken.
	fmt.Println("2. bakery (fenced doorway), fast VM engine:")
	prog := vmprog.MustBakery(2, false)
	tsoEng, err := vmprog.NewEngineOrdering(prog, 2, tso.TSO)
	if err != nil {
		log.Fatal(err)
	}
	tsoRes, err := tsoEng.Check(context.Background(), vmprog.ParallelOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   TSO: %d states, complete=%v, violation=%v\n",
		tsoRes.States, tsoRes.Complete, tsoRes.Violation)
	psoEng, err := vmprog.NewEngineOrdering(prog, 2, tso.PSO)
	if err != nil {
		log.Fatal(err)
	}
	psoRes, err := psoEng.Check(context.Background(), vmprog.ParallelOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   PSO: violation=%v (schedule of %d decisions)\n", psoRes.Violation, len(psoRes.Schedule))
	for i, d := range psoRes.Schedule {
		if d.Commit && d.VarPlus1 > 0 {
			fmt.Printf("   decision %d: p%d commits %s OUT OF ISSUE ORDER - the PSO reordering TSO forbids\n",
				i, d.P, prog.Vars[d.VarPlus1-1])
		}
	}
	fmt.Println()

	// 3. A cautionary tale: eliding the bakery's ticket-publication fence
	// "looks" TSO-safe (writes commit in issue order), but the checker
	// refutes the argument - the danger is delay, not order.
	fmt.Println("3. bakery WITHOUT the ticket-publication fence, TSO:")
	weak := vmprog.MustBakery(2, true)
	weakEng, err := vmprog.NewEngineOrdering(weak, 2, tso.TSO)
	if err != nil {
		log.Fatal(err)
	}
	weakRes, err := weakEng.Check(context.Background(), vmprog.ParallelOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   violation=%v after %d states\n", weakRes.Violation, weakRes.States)
	fmt.Println("   a process can pass its whole wait loop while its ticket is still")
	fmt.Println("   buffered and invisible; a competitor draws an equal ticket and the")
	fmt.Println("   ID tie-break admits both. The counterexample replays identically on")
	fmt.Println("   the goroutine engine (see internal/vmprog's differential tests).")
}
