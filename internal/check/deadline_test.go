package check

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// TestDeadlineEndsAsTimeBudget holds Verify and VerifyRecoverable, at the
// default worker count (0, one worker) and at one and two workers, to the
// budget contract for time: an exploration that its context's deadline stops
// returns a BudgetError of kind BudgetTime (so a job that hits its timeout
// carries the budget_exhausted code), promptly, and leaves no goroutine
// behind; a cancelled context still returns context.Canceled. The 20 ms
// deadline lands mid-layer, with successor batches pending, on spaces that
// take seconds to explore.
func TestDeadlineEndsAsTimeBudget(t *testing.T) {
	filter, err := vmprog.Lookup("filter", 3)
	if err != nil {
		t.Fatal(err)
	}
	mcs, err := vmprog.Lookup("mcs", 4)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		run  func(ctx context.Context, workers int) error
	}{
		{"VerifyRecoverable filter n=3", func(ctx context.Context, workers int) error {
			_, err := VerifyRecoverable(ctx, filter, 3,
				WithCrashes(vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}), WithWorkers(workers))
			return err
		}},
		{"Verify mcs n=4", func(ctx context.Context, workers int) error {
			_, err := Verify(ctx, mcs, 4, WithReduce(ReduceNone), WithWorkers(workers))
			return err
		}},
	}
	for _, c := range calls {
		for _, workers := range []int{0, 1, 2} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			start := time.Now()
			err := c.run(ctx, workers)
			elapsed := time.Since(start)
			cancel()
			var be *BudgetError
			if !errors.Is(err, ErrBudget) || !errors.As(err, &be) || be.Kind != BudgetTime {
				t.Fatalf("%s workers=%d: err %v, want a %s budget error", c.name, workers, err, BudgetTime)
			}
			if elapsed > time.Second {
				t.Errorf("%s workers=%d: returned %v after its 20ms deadline", c.name, workers, elapsed)
			}
			waitGoroutines(t, base)
			t.Logf("%s workers=%d: %v after %v", c.name, workers, err, elapsed)

			ctx, cancel = context.WithCancel(context.Background())
			stop := time.AfterFunc(20*time.Millisecond, cancel)
			err = c.run(ctx, workers)
			stop.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) || errors.Is(err, ErrBudget) {
				t.Fatalf("%s workers=%d: cancelled run returned %v, want context.Canceled", c.name, workers, err)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestReplayCheckerDeadline holds the replay checker to the cancellation
// contract: it starts a simulator, with a goroutine per process, on every
// backtrack, and a 100 ms deadline must end it with the context's error
// within a second, every simulator it started killed.
func TestReplayCheckerDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Exhaustive{MaxStates: 1 << 30, MaxDepth: 1 << 20}.Verify(ctx, tso.Config{N: 4}, mutex.Build(mutex.NewMCS))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the context's deadline error", err)
	}
	if elapsed > time.Second {
		t.Errorf("returned %v after a 100ms deadline", elapsed)
	}
	waitGoroutines(t, base)
}

// waitGoroutines polls, yielding the processor, until the goroutine count
// is back to base, and fails the test if it is not back within a few
// seconds. A worker that has returned its last item may still be inside
// its WaitGroup's Done when the call returns, and under the race detector
// on a loaded host it can take a while to be scheduled again; a leaked
// goroutine never exits, so the bound only has to outlast that.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines left running, %d before the call", n, base)
	}
}

// TestNegativeWorkersRejected pins that a negative worker count is an error
// of Verify and VerifyRecoverable, raised before anything is built or
// explored: the nil program would panic in any later step.
func TestNegativeWorkersRejected(t *testing.T) {
	ctx := context.Background()
	if _, err := Verify(ctx, nil, 2, WithWorkers(-1)); err == nil || !strings.Contains(err.Error(), "worker count") {
		t.Fatalf("Verify with -1 workers: %v", err)
	}
	if _, err := VerifyRecoverable(ctx, nil, 2, WithWorkers(-1),
		WithCrashes(vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1})); err == nil || !strings.Contains(err.Error(), "worker count") {
		t.Fatalf("VerifyRecoverable with -1 workers: %v", err)
	}
}
