// Command priceadaptive runs the reproduction experiments (E1..E11) and
// prints their tables. With no arguments it runs every experiment; with
// experiment IDs as arguments it runs just those.
//
// Experiments execute through the same job queue that powers cmd/padserver:
// -parallel fans them out over a worker pool, and -cache points the queue's
// content-addressed artifact store at a persistent directory so re-runs of
// unchanged experiments are served from disk.
//
// -rme switches to the recoverable-mutual-exclusion tier: instead of the
// experiments it runs one crashsearch job per RME program (recoverability
// verdict plus the adversarial crash-schedule search, witness verified on
// an unreduced and a fully reduced engine), and prints verdicts and
// worst-case post-recovery RMR witnesses.
//
// Usage:
//
//	priceadaptive [-json] [-parallel N] [-cache DIR] [e1 e2 ...]
//	priceadaptive -rme [-json] [-parallel N] [-cache DIR] [prog ...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"priceadaptive/internal/check"
	"priceadaptive/internal/core"
	"priceadaptive/internal/jobs"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the experiment set and reports as one JSON object instead of tables")
	parallel := flag.Int("parallel", 1, "number of experiments to run concurrently")
	cache := flag.String("cache", "", "persistent artifact-store directory (empty = fresh temp store, no caching across runs)")
	reduce := flag.String("reduce", "full", "fast-engine reduction for model-checking experiments: none, ample, or full (strongest sound mode)")
	workers := flag.Int("workers", 0, "frontier-engine worker count for model-checking experiments and -rme verdicts (0 = one worker; results are identical across worker counts)")
	rmeTier := flag.Bool("rme", false, "run the recoverable-mutual-exclusion tier (crashsearch jobs) instead of the experiments; arguments name VM programs")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	mode, err := check.ParseReduceMode(*reduce)
	if err != nil {
		fmt.Fprintln(os.Stderr, "priceadaptive:", err)
		os.Exit(1)
	}
	core.SetFastReduce(mode)
	core.SetFastWorkers(*workers)
	if *rmeTier {
		err = runRME(ctx, flag.Args(), *jsonOut, *parallel, *cache, *workers, os.Stdout)
	} else {
		err = run(ctx, flag.Args(), *jsonOut, *parallel, *cache, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "priceadaptive:", err)
		os.Exit(1)
	}
}

// jsonOutput is the -json payload: the experiment set actually run, in run
// order, plus their reports.
type jsonOutput struct {
	Experiments []string       `json:"experiments"`
	Reports     []*core.Report `json:"reports"`
}

// openQueue opens the artifact store at dir (a fresh temp store when dir is
// empty) and starts a job queue over it; close tears both down.
func openQueue(dir string, parallel int) (q *jobs.Queue, close func(), err error) {
	var cleanup func()
	if dir == "" {
		tmp, err := os.MkdirTemp("", "priceadaptive-*")
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		dir = tmp
	}
	store, err := jobs.Open(dir)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, nil, err
	}
	q = jobs.NewQueue(store, jobs.WithWorkers(parallel))
	jobs.RegisterBuiltins(q)
	if _, err := q.Recover(); err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, nil, err
	}
	q.Start()
	return q, func() {
		q.Close()
		if cleanup != nil {
			cleanup()
		}
	}, nil
}

func run(ctx context.Context, args []string, jsonOut bool, parallel int, cache string, w io.Writer) error {
	registry := core.Experiments()
	ids := args
	if len(ids) == 0 {
		ids = core.ExperimentIDs()
	}
	for i, id := range ids {
		ids[i] = strings.ToLower(id)
		if _, ok := registry[ids[i]]; !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", id, core.ExperimentIDs())
		}
	}

	q, closeQueue, err := openQueue(cache, parallel)
	if err != nil {
		return err
	}
	defer closeQueue()

	// Submit everything up front so the pool can run ahead, then collect in
	// the requested order: output is byte-identical (modulo timing fields)
	// for any -parallel value.
	jobIDs := make([]string, len(ids))
	for i, id := range ids {
		params, err := json.Marshal(jobs.ExperimentParams{ID: id})
		if err != nil {
			return err
		}
		st, _, err := q.Submit(jobs.Spec{Kind: jobs.KindExperiment, Params: params})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		jobIDs[i] = st.ID
	}

	out := jsonOutput{Experiments: ids}
	for i, id := range ids {
		st, err := q.Wait(ctx, jobIDs[i])
		if err != nil {
			return err
		}
		if st.State != jobs.StateDone {
			return fmt.Errorf("%s: job %s: %s", id, st.State, st.Error)
		}
		raw, err := q.Result(jobIDs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		var rep core.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: decode report: %w", id, err)
		}
		if jsonOut {
			out.Reports = append(out.Reports, &rep)
			continue
		}
		if err := rep.Fprint(w); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(out)
	}
	return nil
}

// rmeTierPrograms is the default -rme program set: the VM ports with
// first-class recover sections.
var rmeTierPrograms = []string{"rtas", "km-rme", "dm-tas", "dm-queue"}

// runRME runs one crashsearch job per named program (default: the RME tier)
// and prints the recoverability verdict plus the verified worst-case
// post-recovery RMR witness of each.
func runRME(ctx context.Context, args []string, jsonOut bool, parallel int, cache string, workers int, w io.Writer) error {
	progs := args
	if len(progs) == 0 {
		progs = rmeTierPrograms
	}
	q, closeQueue, err := openQueue(cache, parallel)
	if err != nil {
		return err
	}
	defer closeQueue()

	jobIDs := make([]string, len(progs))
	for i, name := range progs {
		params, err := json.Marshal(jobs.CrashSearchParams{Alg: name, Workers: workers})
		if err != nil {
			return err
		}
		st, _, err := q.Submit(jobs.Spec{Kind: jobs.KindCrashSearch, Params: params})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		jobIDs[i] = st.ID
	}

	var results []*jobs.CrashSearchJobResult
	for i, name := range progs {
		st, err := q.Wait(ctx, jobIDs[i])
		if err != nil {
			return err
		}
		if st.State != jobs.StateDone {
			return fmt.Errorf("%s: job %s: %s", name, st.State, st.Error)
		}
		raw, err := q.Result(jobIDs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var res jobs.CrashSearchJobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("%s: decode result: %w", name, err)
		}
		if jsonOut {
			results = append(results, &res)
			continue
		}
		fmt.Fprintln(w, res.Verdict)
		if s := res.Search; s != nil && s.Witness != nil {
			verified := ""
			if res.Verified {
				verified = ", witness verified reduce=none and reduce=full"
			}
			fmt.Fprintf(w, "  worst case (%s): %d post-recovery RMRs with %d crash(es) in %d decisions (%d nodes expanded%s)\n",
				res.Model, s.Witness.MaxRecoveryRMRs, s.Witness.Crashes, len(s.Witness.Schedule), s.Expanded, verified)
		} else if s != nil {
			fmt.Fprintf(w, "  no completed crash schedule within the search budget (%d nodes expanded)\n", s.Expanded)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(results)
	}
	return nil
}
