package check

import (
	"context"
	"fmt"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/rme"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Options is the unified configuration for the model-checking entry points
// Verify and VerifyRecoverable, collapsing the grown-by-accretion trio of
// FastOptions, vmprog.CrashOpts parameters and bare maxStates ints into one
// surface. Build it with NewOptions and the With* functional options
// (mirroring jobs.NewQueue); the zero value is a sensible default: TSO, full
// reduction, engine-default state budget, the sequential engine.
type Options struct {
	// Ordering is the memory model (zero value: tso.TSO).
	Ordering tso.Ordering
	// MaxStates bounds the exploration (0: the engine default, 1<<20).
	MaxStates int
	// Reduce selects the reduction level (empty: ReduceFull). Every level
	// is sound — TestReductionDifferential holds all modes to identical
	// verdicts registry-wide — but state counts are only comparable within
	// one mode.
	Reduce ReduceMode
	// Facts, when non-nil, are pre-derived reduction facts for the program
	// at the requested n (e.g. from the jobs artifact cache); derived on
	// demand otherwise. They must carry the current facts version or
	// verification fails with vmprog.ErrStaleFacts.
	Facts *vmprog.PruneFacts
	// Crash is the crash budget for VerifyRecoverable (ignored by Verify).
	Crash vmprog.CrashOpts
	// Workers selects the engine: 0 runs the sequential engines
	// (depth-first Check / breadth-first CheckRecoverable), any positive
	// value runs the parallel sharded frontier engine with that many
	// workers. Parallel results are identical across worker counts, so
	// Workers=1 is the determinism reference, not a sequential fallback.
	Workers int
	// Bitstate, when non-zero, switches Verify to bitstate hashing with
	// 1<<Bitstate bits on the frontier engine (implying it even when
	// Workers is 0); the result is marked Probabilistic and must never be
	// reported as an exact verdict. VerifyRecoverable rejects it.
	Bitstate uint
}

// Option mutates Options; see NewOptions.
type Option func(*Options)

// WithOrdering selects the memory-ordering model (tso.TSO or tso.PSO).
func WithOrdering(ord tso.Ordering) Option { return func(o *Options) { o.Ordering = ord } }

// WithMaxStates bounds the exploration.
func WithMaxStates(n int) Option { return func(o *Options) { o.MaxStates = n } }

// WithReduce selects the reduction level.
func WithReduce(m ReduceMode) Option { return func(o *Options) { o.Reduce = m } }

// WithFacts supplies pre-derived reduction facts.
func WithFacts(f *vmprog.PruneFacts) Option { return func(o *Options) { o.Facts = f } }

// WithCrashes sets the crash budget for VerifyRecoverable.
func WithCrashes(c vmprog.CrashOpts) Option { return func(o *Options) { o.Crash = c } }

// WithWorkers selects the parallel frontier engine with n workers (0 keeps
// the sequential engine).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithBitstate selects probabilistic bitstate hashing with 1<<bits bits.
func WithBitstate(bits uint) Option { return func(o *Options) { o.Bitstate = bits } }

// NewOptions applies the options to a zero Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// engineFor builds the engine for p at n per o: ordering applied, reduction
// facts derived (or taken from o.Facts) and installed per o.Reduce.
func engineFor(p *vmprog.Program, n int, o Options) (*vmprog.Engine, error) {
	eng, err := vmprog.NewEngineOrdering(p, n, o.Ordering)
	if err != nil {
		return nil, err
	}
	mode, err := ParseReduceMode(string(o.Reduce))
	if err != nil {
		return nil, err
	}
	if mode != ReduceNone {
		base := o.Facts
		if base == nil {
			base, err = por.Facts(p, n)
			if err != nil {
				return nil, fmt.Errorf("check: deriving reduction facts: %w", err)
			}
		}
		if err := eng.UsePruning(ReduceFacts(base, mode)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// Verify exhaustively model-checks a VM lock program for n processes: the
// unified entry point over the sequential DFS engine (Workers 0) and the
// parallel sharded frontier engine (WithWorkers / WithBitstate), reduced by
// the static analyzer's independence and symmetry facts per WithReduce. A
// context deadline that stops the exploration is reported as a BudgetError
// of kind BudgetTime; a cancelled context as context.Canceled.
//
//	res, err := check.Verify(ctx, p, n, check.WithWorkers(8), check.WithMaxStates(1<<24))
func Verify(ctx context.Context, p *vmprog.Program, n int, opts ...Option) (*vmprog.CheckResult, error) {
	o := NewOptions(opts...)
	eng, err := engineFor(p, n, o)
	if err != nil {
		return nil, err
	}
	var res *vmprog.CheckResult
	if o.Workers > 0 || o.Bitstate > 0 {
		res, err = eng.CheckParallel(ctx, vmprog.ParallelOpts{
			Workers:      o.Workers,
			MaxStates:    o.MaxStates,
			BitstateBits: o.Bitstate,
		})
	} else {
		res, err = eng.Check(ctx, o.MaxStates)
	}
	if err != nil {
		return nil, deadlineBudget(err)
	}
	return res, nil
}

// VerifyRecoverable computes the recoverability verdict of a VM program
// under the bounded crash adversary of WithCrashes: the unified entry point
// over the sequential breadth-first checker (Workers 0) and the parallel
// frontier engine (WithWorkers), which drops states after expansion and so
// completes crash spaces the sequential checker cannot hold in memory.
// Ample reduction is never applied (crashes are never independent); the
// state normalizations of WithReduce are. Deadlines and cancellation end it
// as they end Verify.
func VerifyRecoverable(ctx context.Context, p *vmprog.Program, n int, opts ...Option) (*rme.Verdict, error) {
	o := NewOptions(opts...)
	eng, err := engineFor(p, n, o)
	if err != nil {
		return nil, err
	}
	var v *rme.Verdict
	if o.Workers > 0 || o.Bitstate > 0 {
		v, err = rme.CheckRecoverabilityParallel(ctx, eng, vmprog.ParallelOpts{
			Workers:      o.Workers,
			MaxStates:    o.MaxStates,
			BitstateBits: o.Bitstate,
		}, o.Crash)
	} else {
		v, err = rme.CheckRecoverability(ctx, eng, o.MaxStates, o.Crash)
	}
	if err != nil {
		return nil, deadlineBudget(err)
	}
	return v, nil
}
