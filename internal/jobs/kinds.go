package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"priceadaptive/internal/analysis"
	"priceadaptive/internal/analysis/absint"
	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/check"
	"priceadaptive/internal/core"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Built-in job kinds.
const (
	// KindExperiment runs one registered E1..E11 experiment and stores its
	// core.Report as the artifact.
	KindExperiment = "experiment"
	// KindModelCheck runs a bounded model-check of a registered lock (replay
	// engine) or VM program (fast engine) and stores the verdict plus the
	// minimized counterexample schedule, if any.
	KindModelCheck = "modelcheck"
	// KindLint runs the static analyzer (internal/analysis) over VM lock
	// programs and stores the reports, so padserver serves fence/buffer
	// analyses through the same queue and artifact store as experiments.
	KindLint = "padlint"
	// KindSynthetic is the load-generator kind: a deterministic CPU-bound
	// hash chain, a pure function of its params, so fleets can be
	// throughput-tested (BENCH_server.json) and chaos-tested with
	// checksum-stable artifacts.
	KindSynthetic = "synthetic"

	// KindVet (declared in vet.go) lints the repository's own source with
	// the padvet suite.

	// KindCrashSearch (declared in crashsearch.go) runs the RME
	// recoverability verdict plus the adversarial crash-schedule search.
)

// BuiltinKinds lists the kinds RegisterBuiltins installs; the fabric
// dispatcher admits exactly these without holding any runner itself.
func BuiltinKinds() []string {
	return []string{KindExperiment, KindModelCheck, KindLint, KindSynthetic, KindVet, KindCrashSearch}
}

// RegisterBuiltins installs the repository's job kinds on q: the experiment
// runners, the bounded model checkers, and the static linter. Both
// cmd/padserver and cmd/priceadaptive call this, so the server and the CLI
// execute identical code paths. The model checker is wrapped to feed its
// exploration counts into the queue's observability registry.
func RegisterBuiltins(q *Queue) {
	reg := q.Observability()
	states := reg.Counter("pad_check_states_total", "States explored by model-check jobs.")
	decisions := reg.Counter("pad_check_decisions_total", "Scheduling decisions explored by model-check jobs.")
	rate := reg.Gauge("pad_check_states_per_second", "Exploration rate of the most recent model-check job.")
	q.Register(KindExperiment, runExperiment)
	// Modelcheck jobs cache derived reduction facts per program hash and
	// process count through the queue's own artifact store.
	factsCache := &FactsCache{Store: q.store, Clock: q.clock}
	q.Register(KindModelCheck, func(ctx context.Context, params json.RawMessage) (any, error) {
		start := q.clock.Now()
		res, err := runModelCheckCached(ctx, params, factsCache)
		if mc, ok := res.(*ModelCheckResult); ok && err == nil {
			states.Add(float64(mc.States))
			decisions.Add(float64(mc.Decisions))
			if d := q.clock.Now().Sub(start).Seconds(); d > 0 {
				rate.Set(float64(mc.States) / d)
			}
		}
		return res, err
	})
	q.Register(KindLint, runLint)
	q.Register(KindSynthetic, runSynthetic)
	// Crashsearch jobs cache their deterministic results (and reduction
	// facts) through the queue's artifact store.
	q.Register(KindCrashSearch, func(ctx context.Context, params json.RawMessage) (any, error) {
		return runCrashSearch(ctx, params, factsCache)
	})
	// The source linter caches per-package results through the queue's own
	// artifact store, on the queue's clock.
	vetCache := &VetCache{Store: q.store, Clock: q.clock}
	q.Register(KindVet, func(ctx context.Context, params json.RawMessage) (any, error) {
		return runVet(ctx, params, vetCache)
	})
}

// SyntheticParams configures one synthetic load-generator job.
type SyntheticParams struct {
	// I distinguishes job identities (it seeds the hash chain).
	I int `json:"i"`
	// Work is the number of hash-chain iterations (default 1000); it scales
	// the job's CPU cost without changing its identity-per-I determinism.
	Work int `json:"work,omitempty"`
}

// SyntheticResult is the persisted artifact of a synthetic job. Digest is a
// pure function of (I, Work), so duplicate executions anywhere in a fleet
// produce byte-identical artifacts — any checksum divergence is a real
// duplicate-side-effect bug, not noise.
type SyntheticResult struct {
	I      int    `json:"i"`
	Work   int    `json:"work"`
	Digest uint64 `json:"digest"`
}

// RunSynthetic executes the synthetic kind outside a queue — load
// generators and fleet tests use it to compute the expected artifact.
func RunSynthetic(ctx context.Context, params json.RawMessage) (any, error) {
	return runSynthetic(ctx, params)
}

func runSynthetic(ctx context.Context, params json.RawMessage) (any, error) {
	var p SyntheticParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fmt.Errorf("synthetic params: %w", err)
	}
	if p.Work <= 0 {
		p.Work = 1000
	}
	// FNV-1a chain: cheap, deterministic, unoptimizable-away.
	h := uint64(14695981039346656037)
	h ^= uint64(p.I)
	for i := 0; i < p.Work; i++ {
		h = (h ^ uint64(i)) * 1099511628211
		if i%65536 == 65535 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return &SyntheticResult{I: p.I, Work: p.Work, Digest: h}, nil
}

// ExperimentParams selects one experiment by registry id ("e1".."e11").
type ExperimentParams struct {
	ID string `json:"id"`
}

func runExperiment(ctx context.Context, params json.RawMessage) (any, error) {
	var p ExperimentParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fmt.Errorf("experiment params: %w", err)
	}
	id := strings.ToLower(p.ID)
	runner, ok := core.Experiments()[id]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (have %v)", p.ID, core.ExperimentIDs())
	}
	return runner(ctx)
}

// errorCode classifies a runner error into a stable envelope code for
// Status.ErrorCode, so API clients can tell "the program is broken or the
// infrastructure failed" from "the exploration ran out of budget" without
// parsing error strings. Unclassified failures map to the empty string.
func errorCode(err error) string {
	switch {
	case errors.Is(err, check.ErrBudget):
		return CodeBudget
	case errors.Is(err, vmprog.ErrStaleFacts):
		return CodeStaleFacts
	}
	return ""
}

// ModelCheckParams configures a bounded model-check run.
type ModelCheckParams struct {
	// Alg names a registered mutex algorithm (replay engine) or VM program
	// (fast engine).
	Alg string `json:"alg"`
	// N is the process count (default 2); Passages the passages per process
	// (default 1, replay engine only).
	N        int `json:"n,omitempty"`
	Passages int `json:"passages,omitempty"`
	// Ordering is "tso" (default) or "pso".
	Ordering string `json:"ordering,omitempty"`
	// Engine is "replay" (default; goroutine simulator, any registered
	// lock) or "fast" (VM programs; complete verification).
	Engine string `json:"engine,omitempty"`
	// MaxStates / MaxDepth bound the search (0 = engine defaults).
	MaxStates int `json:"max_states,omitempty"`
	MaxDepth  int `json:"max_depth,omitempty"`
	// CollapseSpins merges states differing only in spin iterations
	// (replay engine; sound for pure spin-wait locks).
	CollapseSpins bool `json:"collapse_spins,omitempty"`
	// Reduce selects the fast engine's reduction mode ("none", "ample" or
	// "full"; ignored by the replay engine). Empty keeps the legacy
	// default: "ample" when the deprecated Prune is set, "none" otherwise,
	// so pre-existing job specs keep their meaning and their state counts.
	Reduce string `json:"reduce,omitempty"`
	// Prune is the deprecated boolean predecessor of Reduce.
	Prune bool `json:"prune,omitempty"`
	// Workers is the fast engine's frontier worker count (0: one worker;
	// ignored by the replay engine). Verdicts and counterexamples are
	// identical across worker counts.
	Workers int `json:"workers,omitempty"`
	// RequireComplete fails the job with a budget_exhausted error when the
	// exploration ends incomplete without a violation, instead of storing
	// an inconclusive artifact.
	RequireComplete bool `json:"require_complete,omitempty"`
}

// MCDecision is one scheduling decision of a counterexample schedule, in the
// same encoding as check.SaveSchedule ("var" holds VarPlus1).
type MCDecision struct {
	P        int  `json:"p"`
	Commit   bool `json:"commit,omitempty"`
	VarPlus1 int  `json:"var,omitempty"`
}

// ModelCheckResult is the persisted artifact of a modelcheck job.
type ModelCheckResult struct {
	Alg      string `json:"alg"`
	Engine   string `json:"engine"`
	Ordering string `json:"ordering"`
	N        int    `json:"n"`
	Passages int    `json:"passages,omitempty"`
	// States / Decisions measure the exploration; Complete reports whether
	// the reachable state space was exhausted within the bounds.
	States    int  `json:"states"`
	Decisions int  `json:"decisions"`
	Complete  bool `json:"complete"`
	// Violated reports an exclusion violation; Schedule is its minimized
	// reproduction and MinimizedFrom the pre-minimization length.
	Violated      bool         `json:"violated"`
	Schedule      []MCDecision `json:"schedule,omitempty"`
	MinimizedFrom int          `json:"minimized_from,omitempty"`
}

func runModelCheck(ctx context.Context, params json.RawMessage) (any, error) {
	return runModelCheckCached(ctx, params, nil)
}

func runModelCheckCached(ctx context.Context, params json.RawMessage, cache *FactsCache) (any, error) {
	var p ModelCheckParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fmt.Errorf("modelcheck params: %w", err)
	}
	if p.N <= 0 {
		p.N = 2
	}
	if p.Ordering == "" {
		p.Ordering = "tso"
	}
	if p.Engine == "" {
		p.Engine = "replay"
	}
	ord, err := tso.ParseOrdering(p.Ordering)
	if err != nil {
		return nil, err
	}
	res := &ModelCheckResult{Alg: p.Alg, Engine: p.Engine, Ordering: p.Ordering, N: p.N, Passages: p.Passages}
	switch p.Engine {
	case "fast":
		prog, err := vmprog.Lookup(p.Alg, p.N)
		if err != nil {
			return nil, err
		}
		reduce := p.Reduce
		if reduce == "" {
			if p.Prune {
				reduce = string(check.ReduceAmple)
			} else {
				reduce = string(check.ReduceNone)
			}
		}
		mode, err := check.ParseReduceMode(reduce)
		if err != nil {
			return nil, err
		}
		vopts := []check.Option{
			check.WithOrdering(ord),
			check.WithMaxStates(p.MaxStates),
			check.WithReduce(mode),
			check.WithWorkers(p.Workers),
		}
		if mode != check.ReduceNone {
			facts, err := cache.Facts(prog, p.N)
			if err != nil {
				return nil, err
			}
			vopts = append(vopts, check.WithFacts(facts))
		}
		rep, err := check.Verify(ctx, prog, p.N, vopts...)
		if err != nil {
			return nil, err
		}
		res.States, res.Decisions, res.Complete, res.Violated = rep.States, rep.Transitions, rep.Complete, rep.Violation
		if rep.Violation {
			eng, err := vmprog.NewEngineOrdering(prog, p.N, ord)
			if err != nil {
				return nil, err
			}
			min, err := eng.Minimize(ctx, rep.Schedule)
			if err != nil {
				return nil, err
			}
			res.MinimizedFrom = len(rep.Schedule)
			res.Schedule = toMCDecisions(min)
		}
	case "replay":
		factory, err := mutex.Lookup(p.Alg)
		if err != nil {
			return nil, err
		}
		build := mutex.Build(factory)
		cfg := tso.Config{N: p.N, Passages: p.Passages}
		if ord == tso.PSO {
			cfg.Ordering = tso.PSO
		}
		rep, err := check.Exhaustive{
			MaxStates:     p.MaxStates,
			MaxDepth:      p.MaxDepth,
			CollapseSpins: p.CollapseSpins,
		}.Verify(ctx, cfg, build)
		if err != nil {
			return nil, err
		}
		res.States, res.Decisions, res.Complete = rep.States, rep.Decisions, rep.Complete
		if rep.Violation != nil {
			res.Violated = true
			min, err := check.Minimize(ctx, cfg, build, rep.Schedule)
			if err != nil {
				return nil, err
			}
			res.MinimizedFrom = len(rep.Schedule)
			res.Schedule = toMCDecisions(min)
		}
	default:
		return nil, fmt.Errorf("unknown engine %q", p.Engine)
	}
	if p.RequireComplete && !res.Complete && !res.Violated {
		return nil, &check.BudgetError{
			Kind: check.BudgetStates, Limit: p.MaxStates, Explored: res.States,
			Detail: fmt.Sprintf("modelcheck %s n=%d", p.Alg, p.N),
		}
	}
	return res, nil
}

func toMCDecisions(sched []tso.Decision) []MCDecision {
	out := make([]MCDecision, len(sched))
	for i, d := range sched {
		out[i] = MCDecision{P: int(d.P), Commit: d.Commit, VarPlus1: d.VarPlus1}
	}
	return out
}

// LintParams configures a padlint job: one registered VM program by name,
// or All for the whole registry with the built-in expectations applied
// (correct programs must lint clean, broken variants must be flagged).
type LintParams struct {
	Alg string `json:"alg,omitempty"`
	All bool   `json:"all,omitempty"`
	// N instantiates size-parametric programs (default 3; fixed-size
	// programs override it).
	N int `json:"n,omitempty"`
}

// LintProgramResult is one program's lint outcome.
type LintProgramResult struct {
	Report *analysis.Report `json:"report"`
	// Quant is the quantitative abstract interpretation: static fence
	// and RMR intervals with a machine-checked witness.
	Quant *absint.Result `json:"quant"`
	// Por digests the static reduction analysis (symmetry verdict and
	// note); nil when the program admits no reduction facts at all.
	Por *por.Summary `json:"por,omitempty"`
	// ExpectBroken marks registry variants required to draw errors.
	ExpectBroken bool `json:"expect_broken,omitempty"`
	// Pass reports whether the program met its expectation (errors on a
	// broken variant, none otherwise).
	Pass bool `json:"pass"`
}

// LintResult is the persisted artifact of a padlint job.
type LintResult struct {
	Programs []LintProgramResult `json:"programs"`
	Errors   int                 `json:"errors"`
	Warnings int                 `json:"warnings"`
	// Pass aggregates the per-program verdicts.
	Pass bool `json:"pass"`
}

func runLint(ctx context.Context, params json.RawMessage) (any, error) {
	var p LintParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fmt.Errorf("padlint params: %w", err)
	}
	if p.N <= 0 {
		p.N = 3
	}
	var entries []vmprog.Entry
	if p.All {
		entries = vmprog.Registry()
	} else {
		e, err := vmprog.LookupEntry(p.Alg)
		if err != nil {
			return nil, err
		}
		entries = []vmprog.Entry{e}
	}
	res := &LintResult{Pass: true}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := p.N
		if e.FixedN > 0 {
			n = e.FixedN
		}
		prog, err := e.Build(n)
		if err != nil {
			return nil, fmt.Errorf("padlint %s: %w", e.Name, err)
		}
		r := analysis.Analyze(prog, n)
		q, err := absint.Analyze(prog, n)
		if err != nil {
			// An absint error is an analyzer soundness bug (a witness that
			// does not replay), never a program finding: fail the job.
			return nil, fmt.Errorf("padlint %s: %w", e.Name, err)
		}
		var porSum *por.Summary
		if pr, err := por.Analyze(prog, n); err == nil {
			porSum = pr.Summary()
		}
		expectBroken := p.All && (e.Broken || e.CrashBroken)
		errs := len(r.Errors()) + len(q.Errors())
		pass := errs == 0
		if expectBroken {
			pass = !pass
		}
		res.Programs = append(res.Programs, LintProgramResult{
			Report:       r,
			Quant:        q,
			Por:          porSum,
			ExpectBroken: expectBroken,
			Pass:         pass,
		})
		res.Errors += errs
		res.Warnings += len(r.Warnings()) + len(q.Warnings())
		if !pass {
			res.Pass = false
		}
	}
	return res, nil
}
