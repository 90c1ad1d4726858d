// Package awareness turns the structural definitions of the paper's proofs
// into runtime-checkable predicates over a live tso.Simulator:
//
//   - invisible sets (Definition 4, properties IN1..IN5),
//   - regular and semi-regular executions (Definition 5),
//   - ordered executions (Definition 6).
//
// The lower-bound construction in package adversary asserts these
// invariants after every phase, so a bug in the construction (or in the
// simulator) surfaces as a named property violation instead of a silently
// wrong result.
package awareness

import (
	"fmt"
	"math/rand"
	"sort"

	"priceadaptive/internal/tso"
)

// PropertyError reports that a named invariant does not hold.
type PropertyError struct {
	// Property is the paper's name for the invariant ("IN1".."IN5",
	// "ordered", ...).
	Property string
	// Detail explains the violation.
	Detail string
}

// Error implements the error interface.
func (e *PropertyError) Error() string {
	return fmt.Sprintf("awareness: %s violated: %s", e.Property, e.Detail)
}

// Options configures IN-set checking.
type Options struct {
	// CheckIN3 enables the expensive replay-based verification of IN3
	// (erasing invisible processes preserves criticality of remaining
	// events). Singleton subsets and the full set are always tried when
	// enabled.
	CheckIN3 bool
	// IN3RandomSubsets adds this many random subsets of the invisible set
	// to the IN3 verification.
	IN3RandomSubsets int
	// Seed seeds random subset selection.
	Seed int64
}

// CheckINSet verifies that inv is an invisible set (Definition 4) of the
// simulator's current execution. It returns a *PropertyError naming the
// first violated property, or nil.
func CheckINSet(sim *tso.Simulator, inv []tso.ProcID, opts Options) error {
	invSet := make(map[tso.ProcID]bool, len(inv))
	for _, p := range inv {
		invSet[p] = true
	}
	act := sim.Active()
	actSet := make(map[tso.ProcID]bool, len(act))
	for _, p := range act {
		actSet[p] = true
	}
	// INV must be a subset of Act(E).
	for _, p := range inv {
		if !actSet[p] {
			return &PropertyError{Property: "IN-set", Detail: fmt.Sprintf("p%d in INV but not active", p)}
		}
	}
	if err := checkIN1(sim, invSet); err != nil {
		return err
	}
	if err := checkIN2(sim, inv); err != nil {
		return err
	}
	if err := checkIN4(sim, actSet); err != nil {
		return err
	}
	if err := checkIN5(sim, invSet, actSet); err != nil {
		return err
	}
	if opts.CheckIN3 {
		if err := checkIN3(sim, inv, opts); err != nil {
			return err
		}
	}
	return nil
}

// checkIN1: no process is aware of any invisible process other than itself.
func checkIN1(sim *tso.Simulator, inv map[tso.ProcID]bool) error {
	n := sim.Config().N
	for i := 0; i < n; i++ {
		p := tso.ProcID(i)
		for _, q := range sim.Awareness(p) {
			if q != p && inv[q] {
				return &PropertyError{
					Property: "IN1",
					Detail:   fmt.Sprintf("p%d is aware of invisible p%d", p, q),
				}
			}
		}
	}
	return nil
}

// checkIN2: all invisible processes are in their entry section.
func checkIN2(sim *tso.Simulator, inv []tso.ProcID) error {
	for _, p := range inv {
		if st := sim.Status(p); st != tso.Entry {
			return &PropertyError{
				Property: "IN2",
				Detail:   fmt.Sprintf("invisible p%d has status %v, want entry", p, st),
			}
		}
	}
	return nil
}

// checkIN3: erasing any subset of invisible processes preserves the
// criticality of the remaining events. Verified by replaying the schedule
// with the subset banned and comparing event streams (which also re-verifies
// that the erasure is an execution at all, i.e. Lemma 1/4).
func checkIN3(sim *tso.Simulator, inv []tso.ProcID, opts Options) error {
	subsets := make([][]tso.ProcID, 0, len(inv)+2)
	for _, p := range inv {
		subsets = append(subsets, []tso.ProcID{p})
	}
	if len(inv) > 1 {
		subsets = append(subsets, inv)
	}
	if opts.IN3RandomSubsets > 0 && len(inv) > 1 {
		rng := rand.New(rand.NewSource(opts.Seed))
		for i := 0; i < opts.IN3RandomSubsets; i++ {
			var sub []tso.ProcID
			for _, p := range inv {
				if rng.Intn(2) == 0 {
					sub = append(sub, p)
				}
			}
			if len(sub) > 0 {
				subsets = append(subsets, sub)
			}
		}
	}
	for _, sub := range subsets {
		banned := make(map[tso.ProcID]bool, len(sub))
		for _, p := range sub {
			banned[p] = true
		}
		replayed, err := sim.Replay(banned)
		if err != nil {
			return &PropertyError{Property: "IN3", Detail: fmt.Sprintf("erasing %v: %v", sub, err)}
		}
		err = verifyErasureCriticality(sim.Execution(), replayed.Execution(), banned)
		replayed.Kill()
		if err != nil {
			return &PropertyError{Property: "IN3", Detail: fmt.Sprintf("erasing %v: %v", sub, err)}
		}
	}
	return nil
}

// verifyErasureCriticality checks both value identity (E^-Y|p == E|p) and
// criticality preservation for retained processes.
func verifyErasureCriticality(orig, replayed *tso.Execution, banned map[tso.ProcID]bool) error {
	if err := tso.VerifyErasure(orig, replayed, banned); err != nil {
		return err
	}
	byProc := make(map[tso.ProcID][]tso.Event)
	for _, e := range replayed.Events {
		byProc[e.P] = append(byProc[e.P], e)
	}
	idx := make(map[tso.ProcID]int)
	for _, e := range orig.Events {
		if banned[e.P] {
			continue
		}
		r := byProc[e.P][idx[e.P]]
		if r.Critical != e.Critical {
			return fmt.Errorf("criticality of p%d event %d changed: orig %v, erased %v (%s)",
				e.P, idx[e.P], e.Critical, r.Critical, e)
		}
		idx[e.P]++
	}
	return nil
}

// checkIN4: if any event remotely accesses a variable local to some process
// q, then q is not active.
func checkIN4(sim *tso.Simulator, act map[tso.ProcID]bool) error {
	for _, e := range sim.Execution().Events {
		if !e.Access || e.Var == nil || !e.Remote {
			continue
		}
		if owner := e.Var.Owner(); owner != tso.NoOwner && act[owner] {
			return &PropertyError{
				Property: "IN4",
				Detail: fmt.Sprintf("p%d remotely accessed %s local to active p%d (seq %d)",
					e.P, e.Var, owner, e.Seq),
			}
		}
	}
	return nil
}

// checkIN5: if more than one active process accessed v, its last writer is
// not invisible. The last-writer test is the cheap one, so accessors are
// counted only for variables an invisible process wrote last.
func checkIN5(sim *tso.Simulator, inv, act map[tso.ProcID]bool) error {
	for _, v := range sim.Memory().Vars() {
		w, ok := sim.LastWriter(v)
		if !ok || !inv[w] {
			continue
		}
		activeAccessors := 0
		for _, p := range sim.AccessedBy(v) {
			if act[p] {
				activeAccessors++
			}
		}
		if activeAccessors > 1 {
			return &PropertyError{
				Property: "IN5",
				Detail: fmt.Sprintf("%s accessed by %d active processes but last written by invisible p%d",
					v, activeAccessors, w),
			}
		}
	}
	return nil
}

// CheckRegular verifies Definition 5: Act(E) is an IN-set of E.
func CheckRegular(sim *tso.Simulator, opts Options) error {
	return CheckINSet(sim, sim.Active(), opts)
}

// CheckSemiRegular verifies the weaker Definition 5 condition: Act(E)
// satisfies IN1..IN4 (IN5 may be violated by the write phase's
// high-contention variables).
func CheckSemiRegular(sim *tso.Simulator, opts Options) error {
	act := sim.Active()
	actSet := make(map[tso.ProcID]bool, len(act))
	for _, p := range act {
		actSet[p] = true
	}
	if err := checkIN1(sim, actSet); err != nil {
		return err
	}
	if err := checkIN2(sim, act); err != nil {
		return err
	}
	if err := checkIN4(sim, actSet); err != nil {
		return err
	}
	if opts.CheckIN3 {
		if err := checkIN3(sim, act, opts); err != nil {
			return err
		}
	}
	return nil
}

// CheckOrdered verifies Definition 6: for every variable v, either (a) its
// last writer is not active, or (b) its last writer is the only active
// process to access it, or (c) the execution contains a contiguous block of
// commits to v by all active processes in increasing ID order, none of which
// has completed the fence in which it committed.
func CheckOrdered(sim *tso.Simulator) error {
	act := sim.Active()
	actSet := make(map[tso.ProcID]bool, len(act))
	for _, p := range act {
		actSet[p] = true
	}
	for _, v := range sim.Memory().Vars() {
		w, hasWriter := sim.LastWriter(v)
		if !hasWriter || !actSet[w] {
			continue // (a)
		}
		activeAccessors := 0
		for _, p := range sim.AccessedBy(v) {
			if actSet[p] {
				activeAccessors++
			}
		}
		if activeAccessors == 1 {
			continue // (b): the writer is the only active accessor
		}
		if ok := hasOrderedCommitBlock(sim, v, act); !ok {
			return &PropertyError{
				Property: "ordered",
				Detail: fmt.Sprintf("%s: last writer p%d active, %d active accessors, and no ordered commit block",
					v, w, activeAccessors),
			}
		}
	}
	return nil
}

// hasOrderedCommitBlock looks for condition (c) of Definition 6.
func hasOrderedCommitBlock(sim *tso.Simulator, v *tso.Var, act []tso.ProcID) bool {
	sorted := make([]tso.ProcID, len(act))
	copy(sorted, act)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	events := sim.Execution().Events
	// Find a contiguous block of commits to v matching sorted exactly.
	for i := 0; i+len(sorted) <= len(events); i++ {
		match := true
		for j, p := range sorted {
			e := events[i+j]
			if e.Kind != tso.EvWriteCommit || e.Var == nil || e.Var.Index() != v.Index() || e.P != p {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		// None of the committers may have completed the fence in which it
		// committed: no EndFence by p after its commit in the block.
		blockEnd := i + len(sorted)
		good := true
		for j, p := range sorted {
			pos := i + j
			for k := pos + 1; k < len(events); k++ {
				if events[k].P == p && events[k].Kind == tso.EvEndFence {
					good = false
					break
				}
			}
			if !good {
				break
			}
			if sim.ModeOf(p) != tso.ModeWrite {
				good = false
				break
			}
			_ = blockEnd
		}
		if good {
			return true
		}
	}
	return false
}
