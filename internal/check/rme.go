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
		nn := n
		if e.FixedN > 0 {
			nn = e.FixedN
		}
		p, err := vmprog.Lookup(e.Name, nn)
		if err != nil {
			return nil, err
		}
		v, err := VerifyRecoverable(ctx, p, nn, opts...)
		if err != nil {
			return nil, fmt.Errorf("check: rme verdict for %s: %w", e.Name, err)
		}
		v.Program = e.Name // registry key, not the internal Program.Name
		out = append(out, RMESuiteEntry{
			Verdict:  v,
			Expected: e.Recoverable,
			Match:    v.Complete && v.Recoverable == e.Recoverable,
		})
	}
	return out, nil
}
