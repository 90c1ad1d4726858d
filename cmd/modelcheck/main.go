// Command modelcheck runs the bounded explicit-state model checker over the
// TSO or PSO schedules of a registered mutual-exclusion algorithm. On
// finding an exclusion violation it minimizes the schedule with delta
// debugging and optionally saves it as a JSON reproduction artifact that
// can be replayed later.
//
// Usage:
//
//	modelcheck -alg peterson-nofence -n 2
//	modelcheck -alg bakery-weak -n 2 -ordering pso -save violation.json
//	modelcheck -replay violation.json -alg bakery-weak
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/check"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

// run parses args and runs the check they select, writing its report to w.
// The replay engine checks the goroutine locks of internal/mutex; the fast
// engine and -rme check the VM programs of internal/vmprog, so -alg is
// resolved in the registry of the engine that runs it.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	alg := fs.String("alg", "peterson", fmt.Sprintf("algorithm: %v with the replay engine; %v with -engine fast or -rme", mutex.Names(), vmprog.Names()))
	n := fs.Int("n", 2, "number of processes")
	passages := fs.Int("passages", 1, "passages per process")
	ordering := fs.String("ordering", "tso", "memory ordering: tso, pso")
	maxStates := fs.Int("states", 200000, "state budget")
	maxDepth := fs.Int("depth", 256, "schedule depth bound")
	collapse := fs.Bool("collapse-spins", true, "merge states differing only in spin iterations (sound for pure spin-wait algorithms)")
	engine := fs.String("engine", "replay", "checker engine: replay (goroutine simulator, any registered lock) or fast (VM programs only; complete verification)")
	reduce := fs.String("reduce", "full", "fast-engine reduction: none (full interleaving graph), ample (persistent sets), full (ample + symmetry canonicalization; strongest sound mode)")
	workers := fs.Int("workers", 0, "fast engine: frontier-engine worker count (0 = one worker; results are identical across worker counts)")
	save := fs.String("save", "", "write a found violation's minimized schedule to this file")
	replay := fs.String("replay", "", "replay a saved schedule instead of searching")
	rmeMode := fs.Bool("rme", false, "run the crash-bounded recoverability check instead of the crash-free verification (fast engine, VM programs only)")
	crashes := fs.Int("crashes", 2, "rme/crash-search: total crash budget")
	crashPerProc := fs.Int("crash-per-proc", 1, "rme/crash-search: per-process crash bound")
	crashSearch := fs.Bool("crash-search", false, "additionally run the adversarial crash-schedule search for the worst post-recovery RMR witness (implies -rme)")
	searchBudget := fs.Int("search-budget", 4096, "crash-search: node-expansion budget")
	searchSeed := fs.Int64("search-seed", 1, "crash-search: frontier tie-break seed")
	model := fs.String("model", "dsm", "crash-search: cache model to price witnesses under (dsm, cc-wt, cc-wb)")
	timeout := fs.Duration("timeout", 0, "abort the search after this wall-clock time (0 = no limit); Ctrl-C also cancels")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The frontier engine backs the fast checker and the RME verdict;
	// silently ignoring -workers on the replay engine would let a
	// "parallel" run report a replay result.
	if *workers != 0 && *engine != "fast" && !*rmeMode && !*crashSearch {
		return fmt.Errorf("-workers needs the fast engine: add -engine fast (or -rme)")
	}

	if *rmeMode || *crashSearch {
		return runRME(ctx, w, *alg, *n, *maxStates, *reduce, rmeOpts{
			crashes: *crashes, perProc: *crashPerProc,
			search: *crashSearch, budget: *searchBudget, seed: *searchSeed,
			model: *model, save: *save, workers: *workers,
		})
	}
	if *engine == "fast" && *replay == "" {
		ord, err := tso.ParseOrdering(*ordering)
		if err != nil {
			return err
		}
		return runFast(ctx, w, *alg, *n, ord, *maxStates, *reduce, *save, *workers)
	}

	factory, err := mutex.Lookup(*alg)
	if err != nil {
		return err
	}
	build := mutex.Build(factory)

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg, sched, err := check.LoadSchedule(f)
		if err != nil {
			return err
		}
		ok, err := check.Reproduces(cfg, build, sched)
		if err != nil {
			return fmt.Errorf("schedule does not apply to %s: %w", *alg, err)
		}
		if ok {
			fmt.Fprintf(w, "schedule reproduces an exclusion violation of %s (%d decisions)\n", *alg, len(sched))
			return nil
		}
		fmt.Fprintln(w, "schedule applied cleanly; no violation reproduced")
		return nil
	}

	cfg := tso.Config{N: *n, Passages: *passages}
	if *ordering == "pso" {
		cfg.Ordering = tso.PSO
	}
	rep, err := check.Exhaustive{
		MaxStates:     *maxStates,
		MaxDepth:      *maxDepth,
		CollapseSpins: *collapse,
	}.Verify(ctx, cfg, build)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("search aborted: %w", err)
		}
		return err
	}
	fmt.Fprintf(w, "%s, N=%d, %s: explored %d states (%d decisions), complete=%v\n",
		*alg, *n, cfg.Ordering, rep.States, rep.Decisions, rep.Complete)
	if rep.Violation == nil {
		if rep.Complete {
			fmt.Fprintln(w, "VERIFIED: no schedule violates mutual exclusion")
		} else {
			fmt.Fprintln(w, "no violation found within the budget (partial verification)")
		}
		return nil
	}
	fmt.Fprintf(w, "VIOLATION: %v\n", rep.Violation)
	min, err := check.Minimize(ctx, cfg, build, rep.Schedule)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "minimized schedule: %d -> %d decisions\n", len(rep.Schedule), len(min))
	for i, d := range min {
		kind := "step"
		if d.Commit {
			kind = "commit"
			if d.VarPlus1 > 0 {
				kind = fmt.Sprintf("commit(var %d, out of order)", d.VarPlus1-1)
			}
		}
		fmt.Fprintf(w, "  %2d: p%d %s\n", i, d.P, kind)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := check.SaveSchedule(f, cfg, min); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved to %s\n", *save)
	}
	return nil
}

// rmeOpts carries the RME-mode flag values.
type rmeOpts struct {
	crashes, perProc int
	search           bool
	budget           int
	seed             int64
	model            string
	save             string
	workers          int
}

// runRME decides crash-bounded recoverability of a VM program on the fast
// engine and, with -crash-search, runs the adversarial crash-schedule
// search, verifying the worst-case post-recovery RMR witness on an
// unreduced and a fully reduced engine before reporting it.
func runRME(ctx context.Context, w io.Writer, alg string, n, maxStates int, reduce string, o rmeOpts) error {
	prog, err := vmprog.Lookup(alg, n)
	if err != nil {
		return err
	}
	mode, err := check.ParseReduceMode(reduce)
	if err != nil {
		return err
	}
	crash := vmprog.CrashOpts{MaxCrashes: o.crashes, MaxPerProc: o.perProc}
	v, err := check.VerifyRecoverable(ctx, prog, n,
		check.WithMaxStates(maxStates),
		check.WithCrashes(crash),
		check.WithReduce(mode),
		check.WithWorkers(o.workers))
	if err != nil {
		return err
	}
	v.Program = alg
	fmt.Fprintln(w, v)
	if len(v.Counterexample) > 0 {
		fmt.Fprintf(w, "counterexample (%d decisions):\n", len(v.Counterexample))
		printSchedule(w, prog, v.Counterexample)
	}
	if !o.search {
		return nil
	}

	m, err := rmr.ParseModel(o.model)
	if err != nil {
		return err
	}
	eng, err := vmprog.NewEngineOrdering(prog, n, tso.TSO)
	if err != nil {
		return err
	}
	res, err := adversary.CrashSearch(ctx, eng, adversary.CrashSearchConfig{
		Seed: o.seed, Budget: o.budget, MaxCrashes: o.crashes, MaxPerProc: o.perProc, Model: m,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "crash search: %d expanded, %d completed schedules, exhausted=%v\n",
		res.Expanded, res.Candidates, res.Exhausted)
	wit := res.Witness
	if wit == nil {
		fmt.Fprintln(w, "no completed crash schedule found within the search budget")
		return nil
	}
	facts, err := por.Facts(prog, n)
	if err != nil {
		return err
	}
	plain, err := vmprog.NewEngineOrdering(prog, n, tso.TSO)
	if err != nil {
		return err
	}
	reduced, err := vmprog.NewEngineOrdering(prog, n, tso.TSO)
	if err != nil {
		return err
	}
	if err := reduced.UsePruning(facts); err != nil {
		return err
	}
	if err := wit.Verify(plain, reduced); err != nil {
		return fmt.Errorf("witness failed verification: %w", err)
	}
	fmt.Fprintf(w, "worst case found (%s): %d post-recovery RMRs with %d crash(es) in %d decisions (verified, reduce=none and reduce=full)\n",
		wit.Model, wit.MaxRecoveryRMRs, wit.Crashes, len(wit.Schedule))
	printSchedule(w, prog, wit.Schedule)
	if o.save != "" {
		data, err := json.MarshalIndent(wit, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.save, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "witness saved to %s\n", o.save)
	}
	return nil
}

// printSchedule renders a decision schedule one line per decision.
func printSchedule(w io.Writer, prog *vmprog.Program, sched []tso.Decision) {
	for i, d := range sched {
		kind := "step"
		switch {
		case d.Crash:
			kind = "CRASH"
		case d.Commit && d.VarPlus1 > 0:
			kind = fmt.Sprintf("commit %s (out of order)", prog.Vars[d.VarPlus1-1])
		case d.Commit:
			kind = "commit"
		}
		fmt.Fprintf(w, "  %2d: p%d %s\n", i, d.P, kind)
	}
}

// runFast verifies a VM program with the fast clonable-state engine:
// complete exploration of the reachable state space under the selected
// static reduction, and delta-debugging minimization of any counterexample
// (schedules are recorded in the unreduced frame, so minimization replays
// on a plain engine).
func runFast(ctx context.Context, w io.Writer, alg string, n int, ord tso.Ordering, maxStates int, reduce, save string, workers int) error {
	prog, err := vmprog.Lookup(alg, n)
	if err != nil {
		return err
	}
	mode, err := check.ParseReduceMode(reduce)
	if err != nil {
		return err
	}
	res, err := check.Verify(ctx, prog, n,
		check.WithOrdering(ord),
		check.WithMaxStates(maxStates),
		check.WithReduce(mode),
		check.WithWorkers(workers))
	if err != nil {
		return err
	}
	eng, err := vmprog.NewEngineOrdering(prog, n, ord)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (VM), N=%d, %s, reduce=%s: explored %d states (%d transitions), complete=%v\n",
		prog.Name, n, ord, mode, res.States, res.Transitions, res.Complete)
	if !res.Violation {
		if res.Complete {
			fmt.Fprintln(w, "VERIFIED: no schedule violates mutual exclusion (exhaustive)")
		} else {
			fmt.Fprintln(w, "no violation found within the budget (partial verification)")
		}
		return nil
	}
	min, err := eng.Minimize(ctx, res.Schedule)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "VIOLATION: minimized schedule %d -> %d decisions\n", len(res.Schedule), len(min))
	for i, d := range min {
		kind := "step"
		if d.Commit {
			kind = "commit"
			if d.VarPlus1 > 0 {
				kind = fmt.Sprintf("commit %s (out of order)", prog.Vars[d.VarPlus1-1])
			}
		}
		fmt.Fprintf(w, "  %2d: p%d %s\n", i, d.P, kind)
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg := tso.Config{N: n}
		if ord == tso.PSO {
			cfg.Ordering = tso.PSO
		}
		if err := check.SaveSchedule(f, cfg, min); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved to %s\n", save)
	}
	return nil
}
