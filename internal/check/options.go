package check

import (
	"context"
	"fmt"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/rme"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Options is the configuration of the model-checking entry points Verify
// and VerifyRecoverable. Build it with NewOptions and the With* functional
// options (mirroring jobs.NewQueue); the zero value is a sensible default:
// TSO, full reduction, engine-default state budget, one worker.
type Options struct {
	// Ordering is the memory model (zero value: tso.TSO).
	Ordering tso.Ordering
	// MaxStates bounds the exploration (0: the engine default, 1<<20).
	MaxStates int
	// Reduce selects the reduction level (empty: ReduceFull). Every level
	// is sound — TestReductionDifferential holds all modes to the verdicts
	// of an unreduced reference search registry-wide — but state counts are
	// only comparable within one mode.
	Reduce ReduceMode
	// Facts, when non-nil, are pre-derived reduction facts for the program
	// at the requested n (e.g. from the jobs artifact cache); derived on
	// demand otherwise. They must carry the current facts version or
	// verification fails with vmprog.ErrStaleFacts.
	Facts *vmprog.PruneFacts
	// Crash is the crash budget for VerifyRecoverable (ignored by Verify).
	Crash vmprog.CrashOpts
	// Workers is the frontier engine's worker count (0: one worker; a
	// negative count is an error). Results are identical across worker
	// counts.
	Workers int
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

// WithWorkers sets the frontier engine's worker count.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// NewOptions applies the options to a zero Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// engineFor builds the engine for p at n per o: ordering applied, reduction
// facts derived (or taken from o.Facts) and installed per o.Reduce. It
// rejects a negative worker count before it builds anything.
func engineFor(p *vmprog.Program, n int, o Options) (*vmprog.Engine, error) {
	if o.Workers < 0 {
		return nil, fmt.Errorf("check: worker count must not be negative, got %d", o.Workers)
	}
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

// Verify exhaustively model-checks a VM lock program for n processes on the
// frontier engine (vmprog.Engine.Check), reduced by the static analyzer's
// independence and symmetry facts per WithReduce. A context deadline that
// stops the exploration is reported as a BudgetError of kind BudgetTime; a
// cancelled context as context.Canceled.
//
//	res, err := check.Verify(ctx, p, n, check.WithWorkers(8), check.WithMaxStates(1<<24))
func Verify(ctx context.Context, p *vmprog.Program, n int, opts ...Option) (*vmprog.CheckResult, error) {
	o := NewOptions(opts...)
	eng, err := engineFor(p, n, o)
	if err != nil {
		return nil, err
	}
	res, err := eng.Check(ctx, o.parallel())
	if err != nil {
		return nil, deadlineBudget(err)
	}
	return res, nil
}

// VerifyRecoverable computes the recoverability verdict of a VM program
// under the bounded crash adversary of WithCrashes on the frontier engine
// (vmprog.Engine.CheckRecoverable). Ample reduction is never applied
// (crashes are never independent); the state normalizations of WithReduce
// are. Deadlines and cancellation end it as they end Verify.
func VerifyRecoverable(ctx context.Context, p *vmprog.Program, n int, opts ...Option) (*rme.Verdict, error) {
	o := NewOptions(opts...)
	eng, err := engineFor(p, n, o)
	if err != nil {
		return nil, err
	}
	v, err := rme.CheckRecoverability(ctx, eng, o.parallel(), o.Crash)
	if err != nil {
		return nil, deadlineBudget(err)
	}
	return v, nil
}

// parallel returns the frontier engine's options.
func (o Options) parallel() vmprog.ParallelOpts {
	return vmprog.ParallelOpts{Workers: o.Workers, MaxStates: o.MaxStates}
}
