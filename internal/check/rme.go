package check

import (
	"context"
	"fmt"

	"priceadaptive/internal/rme"
	"priceadaptive/internal/vmprog"
)

// RMESuiteEntry pairs a program's recoverability verdict with the registry's
// declared expectation.
type RMESuiteEntry struct {
	Verdict *rme.Verdict `json:"verdict"`
	// Expected is the registry's Entry.Recoverable; Match reports whether
	// the computed verdict agrees (an incomplete exploration never
	// matches).
	Expected bool `json:"expected"`
	Match    bool `json:"match"`
}

// RMEVerdictSuite computes the recoverability verdict of every registry
// program at n processes (fixed-size programs at their own size) and checks
// it against the registry's declared expectation. This is the CI
// recoverability gate: rtas and the RME ports must verify recoverable (as
// must the restart-recoverable doorway locks, see vmprog.Entry.Recoverable),
// and the one-shot structures, the TAS family and the crash-broken
// rtas-dirty must be rejected. Every program is checked by VerifyRecoverable
// with opts.
func RMEVerdictSuite(ctx context.Context, n int, opts ...Option) ([]RMESuiteEntry, error) {
	var out []RMESuiteEntry
	for _, e := range vmprog.Registry() {
		entry, err := rmeSuiteEntry(ctx, e, n, opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, entry)
	}
	return out, nil
}

// rmeSuiteEntry computes one registry program's RMEVerdictSuite entry.
func rmeSuiteEntry(ctx context.Context, e vmprog.Entry, n int, opts ...Option) (RMESuiteEntry, error) {
	if e.FixedN > 0 {
		n = e.FixedN
	}
	p, err := vmprog.Lookup(e.Name, n)
	if err != nil {
		return RMESuiteEntry{}, err
	}
	v, err := VerifyRecoverable(ctx, p, n, opts...)
	if err != nil {
		return RMESuiteEntry{}, fmt.Errorf("check: rme verdict for %s: %w", e.Name, err)
	}
	v.Program = e.Name // registry key, not the internal Program.Name
	return RMESuiteEntry{
		Verdict:  v,
		Expected: e.Recoverable,
		Match:    v.Complete && v.Recoverable == e.Recoverable,
	}, nil
}
