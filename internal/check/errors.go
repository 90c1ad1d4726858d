package check

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudget is the family head for "the check ran out of budget, no verdict"
// failures: state budgets, crash-schedule search budgets, and deadlines.
// Budget exhaustion is not a property violation and not an infrastructure
// fault — callers (and API clients, via the budget_exhausted envelope code)
// must be able to tell "broken" from "ran out of budget" programmatically,
// so every such failure satisfies errors.Is(err, ErrBudget).
var ErrBudget = errors.New("check: exploration budget exhausted")

// BudgetKind names which budget ran out.
type BudgetKind string

const (
	// BudgetStates: the state-space budget (MaxStates) was exhausted
	// before the reachable (or crash-bounded) space was covered.
	BudgetStates BudgetKind = "states"
	// BudgetCrashes: a crash-schedule search budget was exhausted before
	// the search space was covered.
	BudgetCrashes BudgetKind = "crashes"
	// BudgetTime: the context deadline expired mid-exploration.
	BudgetTime BudgetKind = "time"
)

// BudgetError reports an exploration that ended without a verdict because a
// budget ran out. It wraps ErrBudget (errors.Is) so callers can classify
// without caring which budget it was, and carries the kind for those that
// do.
type BudgetError struct {
	// Kind is the exhausted budget's dimension.
	Kind BudgetKind
	// Limit is the configured budget (0 when not meaningful, e.g. a
	// deadline).
	Limit int
	// Explored is how much was covered before the budget ran out (states
	// explored, search nodes expanded, ...).
	Explored int
	// Detail is optional free-form context for the error string.
	Detail string
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("%v: %s budget", ErrBudget, e.Kind)
	if e.Limit > 0 {
		msg += fmt.Sprintf(" %d", e.Limit)
	}
	if e.Explored > 0 {
		msg += fmt.Sprintf(" (explored %d)", e.Explored)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Is makes errors.Is(err, ErrBudget) true for every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// deadlineBudget reports an exploration that a context deadline stopped as
// a BudgetTime BudgetError. Every other error, a cancelled context
// included, passes through unchanged.
func deadlineBudget(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return &BudgetError{Kind: BudgetTime, Detail: err.Error()}
	}
	return err
}
