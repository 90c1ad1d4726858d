package check

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/lint/padvet"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// BenchAnalysisEntry is one registry program's explored-state comparison
// across the fast engine's reduction modes: unreduced, ample-set only, and
// full (ample sets plus liveness normalization and symmetry
// canonicalization). A violated row's counts are time-to-bug: each mode
// stops at its first violation, so the counts measure how far each mode's
// search order ran before finding it, and the row carries no reduction
// percentages.
type BenchAnalysisEntry struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// UnprunedStates / PrunedStates / PorPrunedStates count distinct
	// states visited in ReduceNone / ReduceAmple / ReduceFull mode; the
	// engine is deterministic, so all three are exact and reproducible.
	UnprunedStates  int `json:"unpruned_states"`
	PrunedStates    int `json:"pruned_states"`
	PorPrunedStates int `json:"por_pruned_states"`
	// AmpleSteps counts full-mode states where the reduction restricted
	// expansion to a single process's transitions.
	AmpleSteps int `json:"ample_steps"`
	// Complete reports whether all explorations exhausted the reachable
	// space within the budget.
	Complete bool `json:"complete"`
	// Violated marks the deliberately broken variants (exploration stops
	// at the first violation, so their counts measure time-to-bug).
	Violated bool `json:"violated"`
	// ReductionPct is 100 * (1 - por_pruned/unpruned): the engine's
	// default (full) mode against no reduction. Absent on violated rows.
	ReductionPct *float64 `json:"reduction_pct,omitempty"`
	// SymmetryPct is 100 * (1 - por_pruned/pruned): what canonicalization
	// adds on top of ample sets. For programs the type discipline proves
	// symmetric this is orbit merging plus dead-register zeroing; for
	// rejected programs the liveness normalization still contributes.
	// Absent on violated rows.
	SymmetryPct *float64 `json:"symmetry_pct,omitempty"`
}

// SimBenchBaseline pins the deterministic workload behind the sink-overhead
// guard: an Exhaustive run whose state and decision counts are exact, so CI
// can detect both a changed workload (counts drift) and a slowed nil-sink
// fast path (the timing half lives in TestSinkOverheadGuard, which compares
// the nil-sink run against an attached counting sink in-process — wall-clock
// numbers cannot live in a byte-synced artifact).
type SimBenchBaseline struct {
	Program   string `json:"program"`
	N         int    `json:"n"`
	MaxStates int    `json:"max_states"`
	MaxDepth  int    `json:"max_depth"`
	// States and Decisions are the exact exploration counts of the workload.
	States    int `json:"states"`
	Decisions int `json:"decisions"`
	// MaxSinkOverheadPct is the regression budget the guard enforces.
	MaxSinkOverheadPct float64 `json:"max_sink_overhead_pct"`
}

// PadvetBaseline pins the deterministic shape of a full padvet run over
// the repository's own source: analyzer version, rule count, and the
// package/file/finding counts of a clean cold lint. Like SimBenchBaseline,
// the wall-clock half (cold vs fully cached) lives in the timed
// TestPadvetCacheGuard, which re-runs the workload in-process and enforces
// MinCachedSpeedup — timings cannot live in a byte-synced artifact.
type PadvetBaseline struct {
	AnalyzerVersion string `json:"analyzer_version"`
	// Rules counts the suite's rule catalogue.
	Rules int `json:"rules"`
	// Packages and Files count what a full-module run analyzes.
	Packages int `json:"packages"`
	Files    int `json:"files"`
	// Findings must be 0 (the repo gate); Allowed counts the audited
	// padvet:allow / nosleep:allow exceptions in the tree.
	Findings int `json:"findings"`
	Allowed  int `json:"allowed"`
	// MinCachedSpeedup is the regression budget the padvet guard enforces:
	// a fully cached re-lint (every package served from the artifact cache,
	// no type-checking) must be at least this many times faster than the
	// cold run.
	MinCachedSpeedup float64 `json:"min_cached_speedup"`
}

// BenchRMEEntry is one recoverable program's crash-bounded baseline: the
// recoverability verdict's exploration size and the worst post-recovery RMR
// cost the seeded adversarial crash search finds. Both the exploration and
// the search are deterministic (the search under its seed), so the row is
// exact and reproducible; the witness cost is a machine-checked lower bound
// on the true worst case.
type BenchRMEEntry struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// Recoverable is the verdict under the benchRME crash budget.
	Recoverable bool `json:"recoverable"`
	// CrashStates counts distinct states of the crash-bounded exploration
	// (fully reduced normalizations, no ample pruning).
	CrashStates int `json:"crash_states"`
	// WorstRecoveryRMRs is the highest post-recovery RMR cost of any
	// completed crash schedule the search found (DSM model), reached with
	// WitnessCrashes crashes; zero when no schedule completed in budget.
	WorstRecoveryRMRs int `json:"worst_recovery_rmrs"`
	WitnessCrashes    int `json:"witness_crashes"`
}

// ParallelBenchEntry pins one representative lock's frontier-engine
// exploration in ReduceNone mode, where a complete non-violating run
// explores the full reachable space: the row pins the exact size of that
// space as well as cross-worker-count determinism. As with SimBench,
// wall-clock cannot live in a byte-synced artifact; the timing half
// (workers 1, 2 and NumCPU) lives in the flag-gated
// TestParallelScalingGuard.
type ParallelBenchEntry struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// States / Transitions are the exact exploration counts, identical for
	// every worker count.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
}

// TournamentVerdictBaseline records the decided tournament RME verdict: the
// 4-process Peterson tournament is RECOVERABLE under the 2-crash adversary,
// with the crash-bounded exploration completing at the recorded size. The
// run is far too large for the byte-sync recomputation (about 20 minutes),
// so the row is pinned from constants and reproduced by the flag-gated
// TestTournamentVerdictDecided on the frontier engine, which drops states
// after expansion and so holds the exploration in memory.
type TournamentVerdictBaseline struct {
	N          int  `json:"n"`
	MaxCrashes int  `json:"max_crashes"`
	MaxPerProc int  `json:"max_per_proc"`
	Complete   bool `json:"complete"`
	// Recoverable is the decided verdict (previously INCOMPLETE at every
	// CI-sized budget).
	Recoverable bool `json:"recoverable"`
	States      int  `json:"states"`
	Transitions int  `json:"transitions"`
}

// ParallelBench is the BENCH_analysis.json `parallel` section: the frontier
// engine's determinism baselines plus the decided tournament verdict.
type ParallelBench struct {
	// Workers is the wall-clock measurement grid of TestParallelScalingGuard
	// (the last point is raised to NumCPU when larger).
	Workers    []int                      `json:"workers"`
	MaxStates  int                        `json:"max_states"`
	Programs   []ParallelBenchEntry       `json:"programs"`
	Tournament *TournamentVerdictBaseline `json:"tournament,omitempty"`
}

// BenchAnalysis is the tracked BENCH_analysis.json artifact: the static
// analyzer's measured value as a state-space reducer across the whole VM
// program registry, plus the sink-overhead guard baseline.
type BenchAnalysis struct {
	// Ns are the process counts each program is measured at (size-fixed
	// programs run once, at their fixed count).
	Ns []int `json:"ns"`
	// MaxStates is the per-run exploration budget.
	MaxStates int                  `json:"max_states"`
	Programs  []BenchAnalysisEntry `json:"programs"`
	// RME tracks every registry program with a recover section: its
	// recoverability verdict and worst-case post-recovery RMR witness.
	RME []BenchRMEEntry `json:"rme,omitempty"`
	// SimBench is the simulator benchmark baseline for the sink guard.
	SimBench *SimBenchBaseline `json:"sim_bench,omitempty"`
	// Padvet is the source-lint baseline for the padvet cache guard.
	Padvet *PadvetBaseline `json:"padvet,omitempty"`
	// Parallel is the frontier-engine baseline for the parallel guard.
	Parallel *ParallelBench `json:"parallel,omitempty"`
}

// Fixed parameters of the sink-guard workload.
const (
	simBenchProgram   = "peterson"
	simBenchN         = 2
	simBenchMaxStates = 500000
	simBenchMaxDepth  = 256
)

// padvetMinCachedSpeedup is the committed cache-speedup budget: the cold
// run pays std-lib source type-checking, the cached run only parses, so
// anything under 2x means the per-package cache stopped short-circuiting.
const padvetMinCachedSpeedup = 2

// PadvetBench lints the module rooted at root with the full padvet suite
// (optionally through cache) and returns the deterministic baseline facts.
func PadvetBench(root string, cache padvet.Cache) (*PadvetBaseline, error) {
	res, err := padvet.Run(padvet.Config{Root: root, Cache: cache})
	if err != nil {
		return nil, err
	}
	return &PadvetBaseline{
		AnalyzerVersion:  padvet.AnalyzerVersion,
		Rules:            len(padvet.Rules()),
		Packages:         res.Packages,
		Files:            res.Files,
		Findings:         len(res.Findings),
		Allowed:          len(res.Allowed),
		MinCachedSpeedup: padvetMinCachedSpeedup,
	}, nil
}

// SimBenchRun executes the sink-guard workload: an exhaustive check of the
// fenced Peterson lock at N=2. The exploration is deterministic, so its
// report counts must equal the committed SimBenchBaseline exactly.
func SimBenchRun(ctx context.Context) (*ExhaustiveReport, error) {
	return Exhaustive{
		MaxStates:     simBenchMaxStates,
		MaxDepth:      simBenchMaxDepth,
		CollapseSpins: true,
	}.Verify(ctx, tso.Config{N: simBenchN}, mutex.Build(mutex.NewPeterson))
}

// Fixed parameters of the RME baseline rows: the standard 2-crash budget
// and the default search configuration (seed 1 keeps the witness rows
// byte-stable).
const (
	benchRMEN         = 2
	benchRMECrashes   = 2
	benchRMEPerProc   = 1
	benchRMESeed      = 1
	benchRMEBudget    = 4096
	benchRMEMaxStates = 1 << 20
)

// RMEBench computes the crash-bounded baseline for every registry program
// with a recover section: recoverability verdict plus the seeded crash
// search's worst post-recovery RMR witness.
func RMEBench(ctx context.Context) ([]BenchRMEEntry, error) {
	var out []BenchRMEEntry
	for _, e := range vmprog.Registry() {
		nn := benchRMEN
		if e.FixedN > 0 {
			nn = e.FixedN
		}
		p, err := vmprog.Lookup(e.Name, nn)
		if err != nil {
			return nil, err
		}
		if p.Recover == 0 {
			continue
		}
		v, err := VerifyRecoverable(ctx, p, nn,
			WithMaxStates(benchRMEMaxStates),
			WithCrashes(vmprog.CrashOpts{MaxCrashes: benchRMECrashes, MaxPerProc: benchRMEPerProc}),
			WithReduce(ReduceFull))
		if err != nil {
			return nil, err
		}
		ent := BenchRMEEntry{Name: e.Name, N: nn, Recoverable: v.Recoverable, CrashStates: v.States}
		eng, err := vmprog.NewEngineOrdering(p, nn, tso.TSO)
		if err != nil {
			return nil, err
		}
		res, err := adversary.CrashSearch(ctx, eng, adversary.CrashSearchConfig{
			Seed: benchRMESeed, Budget: benchRMEBudget,
			MaxCrashes: benchRMECrashes, MaxPerProc: benchRMEPerProc,
		})
		if err != nil {
			return nil, err
		}
		if w := res.Witness; w != nil {
			ent.WorstRecoveryRMRs = w.MaxRecoveryRMRs
			ent.WitnessCrashes = w.Crashes
		}
		out = append(out, ent)
	}
	return out, nil
}

// parallelBenchPrograms are the representative locks of the parallel
// section: the two one-shot queue locks and the Peterson tournament, all at
// 4 processes, in ReduceNone mode (the mode whose complete counts are the
// size of the full reachable space).
var parallelBenchPrograms = []struct {
	name string
	n    int
}{
	{"anderson", 4},
	{"mcs", 4},
	{"tournament", 4},
}

// parallelBenchWorkers is the wall-clock grid the scaling guard measures
// (its last point is raised to NumCPU when NumCPU is larger).
var parallelBenchWorkers = []int{1, 2, 4}

// The decided tournament RME verdict (see TournamentVerdictBaseline): one
// full exploration of the 4-process tournament's 2-crash state space,
// reproduced by the flag-gated TestTournamentVerdictDecided.
const (
	tournamentVerdictN           = 4
	tournamentVerdictCrashes     = 2
	tournamentVerdictPerProc     = 1
	tournamentVerdictStates      = 31672898
	tournamentVerdictTransitions = 176717000
)

// ParallelBenchRun computes the parallel section's deterministic rows: each
// representative lock explored by the frontier engine (two workers; the
// counts are identical for every worker count). The tournament verdict row
// is pinned from the constants above, not recomputed — reproducing it takes
// tens of millions of states.
func ParallelBenchRun(ctx context.Context) (*ParallelBench, error) {
	pb := &ParallelBench{
		Workers:   parallelBenchWorkers,
		MaxStates: 1 << 22,
		Tournament: &TournamentVerdictBaseline{
			N:          tournamentVerdictN,
			MaxCrashes: tournamentVerdictCrashes,
			MaxPerProc: tournamentVerdictPerProc,
			Complete:   true, Recoverable: true,
			States:      tournamentVerdictStates,
			Transitions: tournamentVerdictTransitions,
		},
	}
	for _, pc := range parallelBenchPrograms {
		p, err := vmprog.Lookup(pc.name, pc.n)
		if err != nil {
			return nil, err
		}
		res, err := Verify(ctx, p, pc.n,
			WithMaxStates(pb.MaxStates),
			WithReduce(ReduceNone),
			WithWorkers(2))
		if err != nil {
			return nil, err
		}
		if !res.Complete || res.Violation {
			return nil, fmt.Errorf("check: parallel bench %s n=%d: complete=%v violation=%v",
				pc.name, pc.n, res.Complete, res.Violation)
		}
		pb.Programs = append(pb.Programs, ParallelBenchEntry{
			Name: pc.name, N: pc.n, States: res.States, Transitions: res.Transitions,
		})
	}
	return pb, nil
}

// benchMaxN caps the process count a program is measured at. The bench
// needs the *unreduced* exploration as its baseline, so a program whose
// ReduceNone space outgrows any reasonable CI budget cannot produce a row
// at that n even though its reduced exploration might fit: synthetic's
// splitter chain exceeds 2^22 distinct unreduced states at n=3 (the n=2
// rows already pin its reduction ratio; the broken synthetic-nofence stops
// at its violation and stays cheap at any n).
var benchMaxN = map[string]int{
	"synthetic": 2,
}

// AnalysisBench runs the reduction-mode comparison over every registry
// program at each of the given process counts and budget (nil/0 selects
// n=2 and n=3 with a 1<<22 budget, the tracked artifact's parameters;
// size-fixed programs run once at their fixed count). padvetRoot, when
// non-empty, is the module root to lint for the padvet baseline section
// ("" skips it, for callers without a stable working directory).
func AnalysisBench(ctx context.Context, ns []int, maxStates int, padvetRoot string) (*BenchAnalysis, error) {
	if len(ns) == 0 {
		ns = []int{2, 3}
	}
	if maxStates <= 0 {
		maxStates = 1 << 22
	}
	out := &BenchAnalysis{Ns: ns, MaxStates: maxStates}
	for _, e := range vmprog.Registry() {
		runs := ns
		if e.FixedN > 0 {
			runs = []int{e.FixedN}
		}
		for _, nn := range runs {
			if lim, ok := benchMaxN[e.Name]; ok && nn > lim {
				continue
			}
			p, err := e.Build(nn)
			if err != nil {
				return nil, err
			}
			plain, err := Verify(ctx, p, nn, WithMaxStates(maxStates), WithReduce(ReduceNone))
			if err != nil {
				return nil, err
			}
			ample, err := Verify(ctx, p, nn, WithMaxStates(maxStates), WithReduce(ReduceAmple))
			if err != nil {
				return nil, err
			}
			full, err := Verify(ctx, p, nn, WithMaxStates(maxStates), WithReduce(ReduceFull))
			if err != nil {
				return nil, err
			}
			ent := BenchAnalysisEntry{
				Name:            p.Name,
				N:               nn,
				UnprunedStates:  plain.States,
				PrunedStates:    ample.States,
				PorPrunedStates: full.States,
				AmpleSteps:      full.AmpleSteps,
				Complete:        plain.Complete && ample.Complete && full.Complete,
				Violated:        plain.Violation,
			}
			if !ent.Violated {
				red := 100 * (1 - float64(full.States)/float64(plain.States))
				sym := 100 * (1 - float64(full.States)/float64(ample.States))
				ent.ReductionPct, ent.SymmetryPct = &red, &sym
			}
			out.Programs = append(out.Programs, ent)
		}
	}
	sort.Slice(out.Programs, func(i, j int) bool {
		if out.Programs[i].Name != out.Programs[j].Name {
			return out.Programs[i].Name < out.Programs[j].Name
		}
		return out.Programs[i].N < out.Programs[j].N
	})
	rmeRows, err := RMEBench(ctx)
	if err != nil {
		return nil, err
	}
	out.RME = rmeRows
	rep, err := SimBenchRun(ctx)
	if err != nil {
		return nil, err
	}
	out.SimBench = &SimBenchBaseline{
		Program:            simBenchProgram,
		N:                  simBenchN,
		MaxStates:          simBenchMaxStates,
		MaxDepth:           simBenchMaxDepth,
		States:             rep.States,
		Decisions:          rep.Decisions,
		MaxSinkOverheadPct: 5,
	}
	if padvetRoot != "" {
		pv, err := PadvetBench(padvetRoot, nil)
		if err != nil {
			return nil, err
		}
		out.Padvet = pv
	}
	pb, err := ParallelBenchRun(ctx)
	if err != nil {
		return nil, err
	}
	out.Parallel = pb
	return out, nil
}

// MarshalIndent renders the artifact in its committed form.
func (b *BenchAnalysis) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
