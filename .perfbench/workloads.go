package main

import (
	"context"
	"fmt"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/bounds"
	"priceadaptive/internal/check"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/rme"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// The construct workload runs the paper's construction against the adaptive
// read/write splitter chain at constructN processes; its known answer is
// constructFences forced fences.
const (
	constructN      = 256
	constructFences = 255
)

// A workload is one timed call into a public entry point, together with the
// answer the call must return. Every workload runs TSO with full reduction
// and takes no seed: the explorations are exhaustive and the construction is
// deterministic.
type workload struct {
	name string
	// why is the reason the workload was chosen; BENCHMARK.json carries the
	// same sentence.
	why string
	// entry is the public entry point of the timed call, used as its span
	// name.
	entry string
	// program and n select the registered VM program of a check workload;
	// program is empty for construct.
	program string
	n       int
	// workers is the worker count of the timed call; 0 selects the
	// sequential engine and is ignored by construct.
	workers int
	// crash is the crash budget of a VerifyRecoverable workload.
	crash *vmprog.CrashOpts
	// table holds the counts measured when the workload was defined. They
	// are printed next to the traced run's counts and never gated on: a
	// reduction that rightly explores fewer states is not a failure.
	table counts
}

// workloads is the benchmark's workload table.
var workloads = []*workload{
	{
		name:    "explore-asym",
		why:     "tournament is not symmetric, so hashing, cloning, seen-set insertion and ample selection do the work: the hot loop of the checker",
		entry:   "check.Verify",
		program: "tournament", n: 4, workers: 1,
		table: counts{States: 264288, Transitions: 686914, AmpleSteps: 158669},
	},
	{
		name:    "explore-sym",
		why:     "mcs is proven permutation-invariant, so every successor is canonicalized over all 24 permutations: symmetry handling dominates",
		entry:   "check.Verify",
		program: "mcs", n: 4, workers: 1,
		table: counts{States: 9332, Transitions: 28721, AmpleSteps: 4594},
	},
	{
		name:    "crash-graph",
		why:     "the crash-bounded recoverability check on two shards: crash decisions, no ample sets, the co-reachability pass, shard routing and stealing",
		entry:   "check.VerifyRecoverable",
		program: "filter", n: 3, workers: 2,
		crash: &vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1},
		table: counts{States: 510018, Transitions: 2194673},
	},
	{
		name:  "construct",
		why:   "the paper's forced-fence construction on the goroutine TSO simulator with erasure by replay; the only workload on tso and adversary",
		entry: "adversary.Run",
		table: counts{Events: 430976, Phases: 768},
	},
}

// lookupWorkload returns the workload named name.
func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// prepared is what set-up builds for the timed call.
type prepared struct {
	prog  *vmprog.Program
	facts *vmprog.PruneFacts
	build tso.Build
}

// counts are the sizes a timed call reports.
type counts struct {
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	AmpleSteps  int `json:"ample_steps,omitempty"`
	Events      int `json:"events,omitempty"`
	Phases      int `json:"phases,omitempty"`
	Erased      int `json:"erased,omitempty"`
}

// outcome is a timed call's result as the known-answer gate sees it.
type outcome struct {
	// Answer is the returned result in one line.
	Answer string `json:"answer"`
	// OK reports that the result is the workload's known answer.
	OK     bool   `json:"ok"`
	Counts counts `json:"counts"`
}

// setup builds everything the timed call needs: for a check workload the
// program (vmprog.Lookup) and its reduction facts (por.Facts), for construct
// only the victim's tso.Build. It records a span per step on rec, which may
// be nil.
func (w *workload) setup(rec *recorder, parent int) (prepared, error) {
	var p prepared
	if w.program == "" {
		err := rec.do(parent, "tso.Build", func() error {
			p.build = mutex.Build(mutex.NewSynthetic)
			return nil
		})
		return p, err
	}
	err := rec.do(parent, "vmprog.Lookup", func() (err error) {
		p.prog, err = vmprog.Lookup(w.program, w.n)
		return err
	})
	if err != nil {
		return p, err
	}
	err = rec.do(parent, "por.Facts", func() (err error) {
		p.facts, err = por.Facts(p.prog, w.n)
		return err
	})
	return p, err
}

// call makes the workload's timed call with the given worker count and
// judges the result against the known answer.
func (w *workload) call(ctx context.Context, p prepared, workers int) (outcome, error) {
	if w.program == "" {
		res, err := adversary.Run(ctx, adversary.Config{
			N:         constructN,
			Algorithm: p.build,
			F:         bounds.Affine{A: 16, C: 10},
			Check:     adversary.CheckNone,
		})
		if err != nil {
			return outcome{}, err
		}
		return judgeConstruct(res), nil
	}
	opts := []check.Option{
		check.WithReduce(check.ReduceFull),
		check.WithFacts(p.facts),
		check.WithWorkers(workers),
	}
	if w.crash != nil {
		v, err := check.VerifyRecoverable(ctx, p.prog, w.n, append(opts, check.WithCrashes(*w.crash))...)
		if err != nil {
			return outcome{}, err
		}
		return judgeRecoverable(v), nil
	}
	res, err := check.Verify(ctx, p.prog, w.n, opts...)
	if err != nil {
		return outcome{}, err
	}
	return judgeVerify(res), nil
}

// judgeVerify accepts a complete, exact exploration without a violation.
func judgeVerify(res *vmprog.CheckResult) outcome {
	return outcome{
		Answer: fmt.Sprintf("complete=%t violation=%t probabilistic=%t", res.Complete, res.Violation, res.Probabilistic),
		OK:     res.Complete && !res.Violation && !res.Probabilistic,
		Counts: counts{States: res.States, Transitions: res.Transitions, AmpleSteps: res.AmpleSteps},
	}
}

// judgeRecoverable accepts a complete RECOVERABLE verdict.
func judgeRecoverable(v *rme.Verdict) outcome {
	return outcome{
		Answer: v.String(),
		OK:     v.Complete && v.Recoverable,
		Counts: counts{States: v.States, Transitions: v.Transitions},
	}
}

// judgeConstruct accepts a construction that exhausted the active set after
// forcing constructFences fences, with its witness verified by replay.
func judgeConstruct(res *adversary.Result) outcome {
	erased := 0
	for _, ph := range res.Phases {
		erased += ph.Erased
	}
	return outcome{
		Answer: fmt.Sprintf("stopped=%q fences=%d witness_verified=%t", res.Stopped, res.FencesForced, res.WitnessVerified),
		OK: res.Stopped == adversary.StopActiveExhausted &&
			res.FencesForced == constructFences && res.WitnessVerified,
		Counts: counts{Events: res.Events, Phases: len(res.Phases), Erased: erased},
	}
}
