package vmprog_test

import (
	"context"
	"fmt"

	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Example verifies Peterson's lock completely over every TSO schedule, then
// shows the fence-free variant failing with a machine-minimized
// counterexample.
func Example() {
	eng, err := vmprog.NewEngineOrdering(vmprog.MustPeterson(true), 2, tso.TSO)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := eng.Check(context.Background(), vmprog.ParallelOpts{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("fenced Peterson: complete=%v violation=%v\n", res.Complete, res.Violation)

	engNF, err := vmprog.NewEngineOrdering(vmprog.MustPeterson(false), 2, tso.TSO)
	if err != nil {
		fmt.Println(err)
		return
	}
	resNF, err := engNF.Check(context.Background(), vmprog.ParallelOpts{})
	if err != nil {
		fmt.Println(err)
		return
	}
	min, err := engNF.Minimize(context.Background(), resNF.Schedule)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("fence-free Peterson: violation=%v, minimized to %d decisions\n",
		resNF.Violation, len(min))
	// Output:
	// fenced Peterson: complete=true violation=false
	// fence-free Peterson: violation=true, minimized to 8 decisions
}
