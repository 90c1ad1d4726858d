package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/check"
	"priceadaptive/internal/fault"
	"priceadaptive/internal/rme"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// KindCrashSearch runs the RME tier for one VM program: the crash-bounded
// recoverability verdict plus the adversarial crash-schedule search, with
// the worst-case witness verified on an unreduced and a fully reduced
// engine before it is persisted. Results are cached in the artifact store
// keyed by program hash and search configuration, so a fleet never repeats
// a search it has already run (the search is deterministic under its seed,
// which is what makes the cached artifact a faithful substitute).
const KindCrashSearch = "crashsearch"

// crashSearchCacheKind names the cached crash-search artifacts; like
// por-facts these are direct store entries, not queue jobs.
const crashSearchCacheKind = "crashsearch-cache"

// CrashSearchParams configures one crashsearch job.
type CrashSearchParams struct {
	// Alg names a registered VM program.
	Alg string `json:"alg"`
	// N is the process count (default 2; fixed-size programs override it).
	N int `json:"n,omitempty"`
	// Seed / Budget / MaxCrashes / MaxPerProc parameterize the search
	// (defaults: 1 / 4096 / 2 / 1).
	Seed       int64 `json:"seed,omitempty"`
	Budget     int   `json:"budget,omitempty"`
	MaxCrashes int   `json:"max_crashes,omitempty"`
	MaxPerProc int   `json:"max_per_proc,omitempty"`
	// Model is the cache model to price under ("dsm" default, "cc-wt",
	// "cc-wb").
	Model string `json:"model,omitempty"`
	// MaxStates bounds the recoverability exploration (0: engine default).
	MaxStates int `json:"max_states,omitempty"`
	// Workers is the recoverability verdict's frontier worker count (0: one
	// worker). Verdicts, witnesses and counts are identical across worker
	// counts, so it is not part of the artifact's cache identity.
	Workers int `json:"workers,omitempty"`
	// RequireComplete fails the job with a budget_exhausted error when the
	// recoverability exploration ends without a verdict.
	RequireComplete bool `json:"require_complete,omitempty"`
}

func (p *CrashSearchParams) defaults() {
	if p.N <= 0 {
		p.N = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Budget <= 0 {
		p.Budget = 4096
	}
	if p.MaxCrashes == 0 {
		p.MaxCrashes = 2
	}
	if p.MaxPerProc == 0 {
		p.MaxPerProc = 1
	}
}

// CrashSearchJobResult is the persisted artifact of a crashsearch job.
type CrashSearchJobResult struct {
	Alg   string `json:"alg"`
	N     int    `json:"n"`
	Model string `json:"model"`
	// Verdict is the crash-bounded recoverability verdict.
	Verdict *rme.Verdict `json:"verdict"`
	// Search is the adversarial search outcome; Search.Witness, when
	// non-nil, has been verified on an unreduced and a fully reduced
	// engine (Verified reports it), making it a machine-checked worst-case
	// post-recovery RMR witness.
	Search   *adversary.CrashSearchResult `json:"search"`
	Verified bool                         `json:"verified"`
}

func runCrashSearch(ctx context.Context, params json.RawMessage, cache *FactsCache) (any, error) {
	var p CrashSearchParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fmt.Errorf("crashsearch params: %w", err)
	}
	p.defaults()
	model, err := rmr.ParseModel(p.Model)
	if err != nil {
		return nil, err
	}
	e, err := vmprog.LookupEntry(p.Alg)
	if err != nil {
		return nil, err
	}
	if e.FixedN > 0 {
		p.N = e.FixedN
	}
	prog, err := vmprog.Lookup(p.Alg, p.N)
	if err != nil {
		return nil, err
	}

	// Cache lookup: the search is deterministic under (program, config).
	spec, id := crashSearchSpec(cache, prog, &p)
	if id != "" {
		if raw, err := cache.Store.GetResult(id); err == nil {
			var res CrashSearchJobResult
			if err := json.Unmarshal(raw, &res); err == nil && res.Verdict != nil {
				return &res, nil
			}
		}
	}

	crash := vmprog.CrashOpts{MaxCrashes: p.MaxCrashes, MaxPerProc: p.MaxPerProc}
	var facts *vmprog.PruneFacts
	if cache != nil && cache.Store != nil {
		facts, err = cache.Facts(prog, p.N)
	} else {
		facts, err = por.Facts(prog, p.N)
	}
	if err != nil {
		return nil, err
	}
	verdict, err := check.VerifyRecoverable(ctx, prog, p.N,
		check.WithMaxStates(p.MaxStates),
		check.WithCrashes(crash),
		check.WithReduce(check.ReduceFull),
		check.WithFacts(facts),
		check.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	verdict.Program = p.Alg
	if p.RequireComplete && !verdict.Complete {
		return nil, &check.BudgetError{
			Kind: check.BudgetStates, Limit: p.MaxStates, Explored: verdict.States,
			Detail: fmt.Sprintf("crashsearch %s n=%d", p.Alg, p.N),
		}
	}

	eng, err := vmprog.NewEngineOrdering(prog, p.N, tso.TSO)
	if err != nil {
		return nil, err
	}
	search, err := adversary.CrashSearch(ctx, eng, adversary.CrashSearchConfig{
		Seed: p.Seed, Budget: p.Budget, MaxCrashes: p.MaxCrashes, MaxPerProc: p.MaxPerProc, Model: model,
	})
	if err != nil {
		return nil, err
	}
	res := &CrashSearchJobResult{Alg: p.Alg, N: p.N, Model: model.String(), Verdict: verdict, Search: search}
	if w := search.Witness; w != nil {
		w.Program = p.Alg // registry key, matching the verdict
		plain, err := vmprog.NewEngineOrdering(prog, p.N, tso.TSO)
		if err != nil {
			return nil, err
		}
		reduced, err := vmprog.NewEngineOrdering(prog, p.N, tso.TSO)
		if err != nil {
			return nil, err
		}
		if err := reduced.UsePruning(facts); err != nil {
			return nil, err
		}
		// Witness engines carry the internal program name; align the check
		// on the registry key the witness was stamped with.
		if err := verifyWitnessNamed(w, prog.Name, plain, reduced); err != nil {
			return nil, fmt.Errorf("crashsearch %s: witness failed verification: %w", p.Alg, err)
		}
		res.Verified = true
	}
	if id != "" {
		putCrashSearch(cache, spec, id, res)
	}
	return res, nil
}

// verifyWitnessNamed verifies w against engines whose program name differs
// from the witness's registry key only by the registry aliasing.
func verifyWitnessNamed(w *rme.Witness, progName string, engines ...*vmprog.Engine) error {
	aliased := *w
	aliased.Program = progName
	return aliased.Verify(engines...)
}

// crashSearchSpec derives the store identity of a crashsearch artifact.
// Returns an empty id when no store is available.
func crashSearchSpec(cache *FactsCache, prog *vmprog.Program, p *CrashSearchParams) (Spec, string) {
	if cache == nil || cache.Store == nil {
		return Spec{}, ""
	}
	hash, err := prog.Hash()
	if err != nil {
		return Spec{}, ""
	}
	m := map[string]any{
		"hash": hash, "n": p.N, "seed": p.Seed, "budget": p.Budget,
		"crashes": p.MaxCrashes, "per_proc": p.MaxPerProc, "model": p.Model,
		"max_states": p.MaxStates, "facts_version": vmprog.FactsVersion,
	}
	params, err := json.Marshal(m)
	if err != nil {
		return Spec{}, ""
	}
	spec := Spec{Kind: crashSearchCacheKind, Params: params}
	id, err := spec.ID()
	if err != nil {
		return Spec{}, ""
	}
	return spec, id
}

func putCrashSearch(cache *FactsCache, spec Spec, id string, res *CrashSearchJobResult) {
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	if err := cache.Store.PutSpec(id, spec); err != nil {
		return
	}
	sum, err := cache.Store.PutResult(id, data)
	if err != nil {
		return
	}
	clock := cache.Clock
	if clock == nil {
		clock = fault.Wall{}
	}
	now := clock.Now().UTC()
	_ = cache.Store.PutStatus(id, Status{
		ID: id, Kind: crashSearchCacheKind, State: StateDone, Attempts: 1,
		CreatedAt: now, StartedAt: now, FinishedAt: now, ResultSum: sum,
	})
}
