package check

import (
	"fmt"

	"priceadaptive/internal/vmprog"
)

// ReduceMode selects how much of the static reduction engine Verify
// installs before exploring.
type ReduceMode string

const (
	// ReduceNone explores the full interleaving graph.
	ReduceNone ReduceMode = "none"
	// ReduceAmple installs ample-set reduction (persistent sets justified
	// by the footprint independence relation) but no state normalization.
	ReduceAmple ReduceMode = "ample"
	// ReduceFull adds dead-register normalization and, for programs proven
	// permutation-invariant, symmetry canonicalization. The strongest sound
	// mode and the default.
	ReduceFull ReduceMode = "full"
)

// ParseReduceMode parses a -reduce flag value; the empty string means full.
func ParseReduceMode(s string) (ReduceMode, error) {
	switch m := ReduceMode(s); m {
	case "":
		return ReduceFull, nil
	case ReduceNone, ReduceAmple, ReduceFull:
		return m, nil
	}
	return "", fmt.Errorf("check: unknown reduce mode %q (want none, ample or full)", s)
}

// ReduceFacts derives the engine facts for p at n restricted to the given
// mode: nil for ReduceNone, footprints only (no liveness normalization, no
// symmetry) for ReduceAmple, everything for ReduceFull. The base facts are
// not mutated.
func ReduceFacts(base *vmprog.PruneFacts, mode ReduceMode) *vmprog.PruneFacts {
	switch mode {
	case ReduceNone:
		return nil
	case ReduceAmple:
		f := *base
		f.Symmetry = nil
		// An all-live mask makes dead-register zeroing the identity.
		f.LiveRegs = make([]uint16, len(base.LiveRegs))
		for i := range f.LiveRegs {
			f.LiveRegs[i] = 1<<vmprog.NumRegs - 1
		}
		return &f
	}
	return base
}
