// Package mutex implements mutual-exclusion algorithms as programs over the
// simulated TSO memory of package tso, spanning the design space the paper
// separates:
//
//   - Bakery: non-adaptive (Θ(N) critical events per passage) with O(1)
//     fence complexity - the profile the paper proves adaptive algorithms
//     cannot have (the Attiya-Hendler-Levy algorithm [6] achieves the same
//     fence profile with O(log N) RMRs).
//   - CASChain and Synthetic: adaptive (critical events a function of
//     contention k, not N) with Θ(k) fence complexity - the price of being
//     adaptive.
//   - Tournament: the classic Θ(log N) point in between.
//   - TAS/TTAS, Peterson, Filter: standard baselines; Peterson optionally
//     elides its fences to demonstrate that TSO breaks fence-free mutual
//     exclusion.
//
// Every lock is allocated by a Factory against a tso.Memory and driven
// through the standard passage program returned by Build.
//
// Nine locks are defined once, as VM programs of internal/vmprog, and run
// here through vmprog.AdaptLock: tas, ttas, peterson and peterson-nofence,
// filter, bakery and bakery-weak, burnslynch and caschain. The other seven
// are goroutine code, each until the VM can express it: mcs and
// yanganderson (DSM-owned spin variables), tournament (a size-parametric
// program), anderson and clh (multiple passages per process), rtas (its
// re-read of the lock word on every passage) and synthetic (its long
// splitter chain, whose exhaustion panics).
package mutex

import (
	"fmt"
	"sort"

	"priceadaptive/internal/tso"
)

// Lock is a mutual-exclusion algorithm instance bound to a simulator's
// memory. Lock and Unlock are called from program goroutines with the
// calling process's handle.
type Lock interface {
	// Name identifies the algorithm, e.g. "bakery".
	Name() string
	// Lock runs the entry protocol for p.
	Lock(p *tso.Proc)
	// Unlock runs the exit protocol for p.
	Unlock(p *tso.Proc)
}

// OneShot is implemented by locks that only support a single passage per
// process (the lower-bound construction considers exactly this one-time
// mutual exclusion setting).
type OneShot interface {
	// OneShot reports that each process may complete at most one passage.
	OneShot() bool
}

// Factory allocates a lock for n processes on mem.
type Factory func(mem *tso.Memory, n int) (Lock, error)

// Build wraps a Factory into a tso.Build producing the standard passage
// program: entry protocol, CS transition, exit protocol.
func Build(f Factory) tso.Build {
	return func(sim *tso.Simulator) (tso.Program, error) {
		l, err := f(sim.Memory(), sim.Config().N)
		if err != nil {
			return nil, err
		}
		return func(p *tso.Proc) {
			l.Lock(p)
			p.CS()
			l.Unlock(p)
		}, nil
	}
}

// Registry maps algorithm names to factories, for the command-line tools.
func Registry() map[string]Factory {
	return map[string]Factory{
		"anderson":     NewAnderson,
		"clh":          NewCLH,
		"tas":          NewTAS,
		"ttas":         NewTTAS,
		"rtas":         NewRTAS,
		"peterson":     NewPeterson,
		"filter":       NewFilter,
		"bakery":       NewBakery,
		"burnslynch":   NewBurnsLynch,
		"bakery-weak":  NewBakeryWeakDoorway,
		"tournament":   NewTournament,
		"mcs":          NewMCS,
		"yanganderson": NewYangAnderson,
		"caschain":     NewCASChain,
		"synthetic":    NewSynthetic,
	}
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, error) {
	f, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("mutex: unknown algorithm %q (have %v)", name, Names())
	}
	return f, nil
}
