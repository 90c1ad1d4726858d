package mutex

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
)

// runLock drives the lock under the given scheduler and returns the
// simulator and accountant after a completed run.
func runLock(t *testing.T, f Factory, cfg tso.Config, sched tso.Scheduler, budget int) (*tso.Simulator, *rmr.Accountant) {
	t.Helper()
	sim, err := tso.NewSimulator(cfg, Build(f))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	t.Cleanup(sim.Kill)
	acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
	res, err := tso.Run(sim, sched, budget)
	if err != nil {
		for i := 0; i < cfg.N; i++ {
			if msg, ok := sim.ProgramPanic(tso.ProcID(i)); ok {
				t.Fatalf("Run: %v (p%d panicked: %s)", err, i, msg)
			}
		}
		t.Fatalf("Run: %v (steps applied before failure; pending p0=%v)", err, sim.PendingOp(0))
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Violation != nil {
		t.Fatalf("exclusion violated: %v", res.Violation)
	}
	return sim, acc
}

// lockCases enumerates every registered lock with a workable configuration.
func lockCases() []struct {
	name     string
	factory  Factory
	n        int
	passages int
} {
	return []struct {
		name     string
		factory  Factory
		n        int
		passages int
	}{
		{"tas", NewTAS, 4, 3},
		{"anderson", NewAnderson, 4, 3},
		{"clh", NewCLH, 4, 3},
		{"ttas", NewTTAS, 4, 3},
		{"peterson", NewPeterson, 2, 3},
		{"filter", NewFilter, 4, 2},
		{"bakery", NewBakery, 4, 2},
		{"burnslynch", NewBurnsLynch, 4, 2},
		{"tournament", NewTournament, 5, 2},
		{"yanganderson", NewYangAnderson, 5, 2},
		{"mcs", NewMCS, 4, 3},
		{"caschain", NewCASChain, 6, 1},   // one-shot
		{"synthetic", NewSynthetic, 6, 1}, // one-shot
	}
}

func TestAllLocksSoloPassage(t *testing.T) {
	for _, tc := range lockCases() {
		t.Run(tc.name, func(t *testing.T) {
			sim, _ := runLock(t, tc.factory, tso.Config{N: tc.n, Passages: 1}, tso.Sequential{}, 2_000_000)
			if got := sim.NumFinished(); got != tc.n {
				t.Errorf("finished = %d, want %d", got, tc.n)
			}
		})
	}
}

func TestAllLocksExclusionUnderRoundRobin(t *testing.T) {
	for _, tc := range lockCases() {
		t.Run(tc.name, func(t *testing.T) {
			runLock(t, tc.factory, tso.Config{N: tc.n, Passages: tc.passages}, tso.NewRoundRobin(), 5_000_000)
		})
	}
}

func TestAllLocksExclusionUnderRandomSchedules(t *testing.T) {
	for _, tc := range lockCases() {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				sched := tso.NewRandom(seed, 0.25)
				cfg := tso.Config{N: tc.n, Passages: tc.passages}
				if tc.name == "synthetic" {
					runSyntheticContended(t, cfg, sched)
					return
				}
				runLock(t, tc.factory, cfg, sched, 5_000_000)
			})
		}
	}
}

// runSyntheticContended holds synthetic to the guarantee it has under
// contention. It is weak obstruction-free: processes racing through a
// splitter can all leave it to the right, so a contended run can exhaust the
// chain (seeds 5-7 at n=6 do). Exclusion must hold, every process that did
// not finish must have died of the chain-exhaustion panic and of nothing
// else, and the run is complete exactly when none did.
func runSyntheticContended(t *testing.T, cfg tso.Config, sched tso.Scheduler) {
	t.Helper()
	sim, err := tso.NewSimulator(cfg, Build(NewSynthetic))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Kill)
	res, err := tso.Run(sim, sched, 5_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("exclusion violated: %v", res.Violation)
	}
	exhausted := 0
	for i := 0; i < cfg.N; i++ {
		msg, panicked := sim.ProgramPanic(tso.ProcID(i))
		switch {
		case !panicked:
		case strings.HasPrefix(msg, "mutex: synthetic chain of length ") && strings.Contains(msg, " exhausted by "):
			exhausted++
		default:
			t.Errorf("p%d died of %q, not of chain exhaustion", i, msg)
		}
	}
	if res.Completed != (exhausted == 0) {
		t.Errorf("Completed = %t with %d of %d processes dead of chain exhaustion", res.Completed, exhausted, cfg.N)
	}
	if exhausted > 0 {
		t.Logf("%d of %d processes exhausted the chain", exhausted, cfg.N)
	}
}

func TestPetersonWithoutFencesViolatesExclusion(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 2}, Build(NewPetersonNoFences))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	// Under a scheduler that never commits buffered writes, both processes
	// read the other's stale flag and march into the CS together.
	res, err := tso.Run(sim, tso.NewRoundRobin(), 10000)
	if err != nil && !errors.Is(err, tso.ErrStepBudget) {
		t.Fatalf("Run: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("fence-free Peterson under TSO must violate exclusion")
	}
}

func TestPetersonWithFencesNoViolationAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sim, err := tso.NewSimulator(tso.Config{N: 2, Passages: 2}, Build(NewPeterson))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tso.Run(sim, tso.NewRandom(seed, 0.3), 500000)
		if err != nil {
			sim.Kill()
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			sim.Kill()
			t.Fatalf("seed %d: unexpected violation %v", seed, res.Violation)
		}
		sim.Kill()
	}
}

func TestPetersonRequiresTwoProcesses(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 3}, Build(NewPeterson))
	if err == nil {
		sim.Kill()
		t.Fatal("peterson with n=3 must fail to build")
	}
}

func TestBakeryFenceComplexityIsConstant(t *testing.T) {
	// Bakery's fence count per passage must be exactly 3 at every
	// contention level: it buys its O(1) fences by being non-adaptive.
	for _, n := range []int{2, 4, 8} {
		sim, acc := runLock(t, NewBakery, tso.Config{N: n}, tso.NewRoundRobin(), 5_000_000)
		_ = sim
		s := acc.Summarize()
		if s.MaxFences != 3 {
			t.Errorf("n=%d: bakery fences max=%d mean=%v, want exactly 3", n, s.MaxFences, s.MeanFences)
		}
		if s.MeanFences != 3 {
			t.Errorf("n=%d: bakery mean fences = %v, want 3", n, s.MeanFences)
		}
	}
}

func TestBakeryIsNonAdaptive(t *testing.T) {
	// Critical events per passage grow with N even when contention is 1
	// (sequential execution): the passage scans all N tickets.
	crit := func(n int) int {
		_, acc := runLock(t, NewBakery, tso.Config{N: n}, tso.Sequential{}, 2_000_000)
		return acc.Summarize().MaxCritical
	}
	c4, c16 := crit(4), crit(16)
	if c16 <= c4 {
		t.Errorf("bakery critical events: n=4 -> %d, n=16 -> %d; want growth with N", c4, c16)
	}
}

func TestCASChainFencesGrowWithContention(t *testing.T) {
	// The adaptive lock's fence complexity grows with contention: under a
	// round-robin schedule of n simultaneous processes, the max fences per
	// passage must increase with n.
	fences := func(n int) int {
		_, acc := runLock(t, NewCASChain, tso.Config{N: n}, tso.NewRoundRobin(), 5_000_000)
		return acc.Summarize().MaxFences
	}
	f2, f8 := fences(2), fences(8)
	if f8 <= f2 {
		t.Errorf("caschain fences: n=2 -> %d, n=8 -> %d; want growth with contention", f2, f8)
	}
}

func TestCASChainIsAdaptive(t *testing.T) {
	// Under sequential (contention-free) execution, the cost per passage
	// must NOT grow with N: each process finds slot 0 free... except slots
	// are one-shot, so the i-th process claims slot i after i failed CAS
	// attempts. Contention here is total contention k = number of
	// participants, which equals N for a full run; run only 3 of N
	// processes instead.
	crit := func(n int) int {
		sim, err := tso.NewSimulator(tso.Config{N: n}, Build(NewCASChain))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Kill()
		acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
		for id := tso.ProcID(0); id < 3; id++ {
			for !sim.Done(id) {
				if _, err := sim.Step(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		max := 0
		for id := tso.ProcID(0); id < 3; id++ {
			for _, ps := range acc.Passages(id) {
				if ps.Critical > max {
					max = ps.Critical
				}
			}
		}
		return max
	}
	c8, c64 := crit(8), crit(64)
	if c64 != c8 {
		t.Errorf("caschain critical events with 3 participants: n=8 -> %d, n=64 -> %d; adaptivity means independence from N", c8, c64)
	}
}

func TestSyntheticIsAdaptive(t *testing.T) {
	crit := func(n, participants int) int {
		sim, err := tso.NewSimulator(tso.Config{N: n}, Build(NewSynthetic))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Kill()
		acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
		for id := tso.ProcID(0); id < tso.ProcID(participants); id++ {
			for !sim.Done(id) {
				if _, err := sim.Step(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		max := 0
		for id := tso.ProcID(0); id < tso.ProcID(participants); id++ {
			for _, ps := range acc.Passages(id) {
				if ps.Critical > max {
					max = ps.Critical
				}
			}
		}
		return max
	}
	c8, c64 := crit(8, 3), crit(64, 3)
	if c64 != c8 {
		t.Errorf("synthetic critical events with 3 participants: n=8 -> %d, n=64 -> %d; want equal (adaptive)", c8, c64)
	}
}

func TestSyntheticFencesGrowWithContention(t *testing.T) {
	fences := func(n int) int {
		_, acc := runLock(t, NewSynthetic, tso.Config{N: n}, tso.NewRoundRobin(), 10_000_000)
		return acc.Summarize().MaxFences
	}
	f2, f12 := fences(2), fences(12)
	if f12 <= f2 {
		t.Errorf("synthetic fences: n=2 -> %d, n=12 -> %d; want growth (the price of being adaptive)", f2, f12)
	}
}

func TestSyntheticExclusionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for seed := int64(1); seed <= 30; seed++ {
		runSyntheticContended(t, tso.Config{N: 7}, tso.NewRandom(seed, 0.35))
	}
}

func TestTournamentFencesAreLogN(t *testing.T) {
	want := map[int]int{2: 2, 4: 3, 8: 4, 16: 5} // log2(n) entry fences + 1 release
	for n, fences := range want {
		_, acc := runLock(t, NewTournament, tso.Config{N: n}, tso.NewRoundRobin(), 10_000_000)
		s := acc.Summarize()
		if s.MaxFences != fences {
			t.Errorf("n=%d: tournament fences = %d, want %d", n, s.MaxFences, fences)
		}
	}
}

func TestSyntheticChainLengthValidation(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 4}, func(s *tso.Simulator) (tso.Program, error) {
		_, err := NewSyntheticLen(s.Memory(), 4, 2)
		return nil, err
	})
	if err == nil {
		sim.Kill()
		t.Fatal("chain shorter than n must be rejected")
	}
}

func TestOneShotMarkers(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 2}, func(s *tso.Simulator) (tso.Program, error) {
		cc, err := NewCASChain(s.Memory(), 2)
		if err != nil {
			return nil, err
		}
		if os, ok := cc.(OneShot); !ok || !os.OneShot() {
			return nil, errors.New("caschain must be one-shot")
		}
		sy, err := NewSynthetic(s.Memory(), 2)
		if err != nil {
			return nil, err
		}
		if os, ok := sy.(OneShot); !ok || !os.OneShot() {
			return nil, errors.New("synthetic must be one-shot")
		}
		return func(p *tso.Proc) { p.CS() }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Kill()
}

func TestRegistryAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Errorf("registry has %d entries: %v", len(names), names)
	}
	for _, name := range names {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown name must fail")
	}
}

func TestLockNames(t *testing.T) {
	sim, err := tso.NewSimulator(tso.Config{N: 4}, func(s *tso.Simulator) (tso.Program, error) {
		for name, f := range Registry() {
			if name == "peterson" || name == "peterson-nofence" {
				continue // needs n=2
			}
			l, err := f(s.Memory(), 4)
			if err != nil {
				return nil, err
			}
			if l.Name() != name {
				return nil, fmt.Errorf("lock %q reports name %q", name, l.Name())
			}
		}
		return func(p *tso.Proc) { p.CS() }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Kill()
}

// TestVMLocksKeepVariableNames pins the variables the VM-defined locks
// allocate, in order, and their DSM owners: traces, tables and the
// adversary's reports print these names, and mcs's spin flags must be local
// to their spinners.
func TestVMLocksKeepVariableNames(t *testing.T) {
	bakery := "bakery.choosing[0] bakery.choosing[1] bakery.number[0] bakery.number[1]"
	peterson := "peterson.flag[0] peterson.flag[1] peterson.turn"
	for _, tc := range []struct {
		name string
		f    Factory
		want string
	}{
		{"bakery", NewBakery, bakery},
		{"bakery-weak", NewBakeryWeakDoorway, bakery},
		{"peterson", NewPeterson, peterson},
		{"peterson-nofence", NewPetersonNoFences, peterson},
		{"tas", NewTAS, "tas.lock"},
		{"ttas", NewTTAS, "ttas.lock"},
		{"filter", NewFilter, "filter.level[0] filter.level[1] filter.victim[0] filter.victim[1]"},
		{"burnslynch", NewBurnsLynch, "bl.flag[0] bl.flag[1]"},
		{"caschain", NewCASChain, "caschain.slot[0] caschain.slot[1] caschain.done[0] caschain.done[1]"},
		{"mcs", NewMCS, "mcs.tail mcs.next[0] mcs.next[1] mcs.locked[0]@p0 mcs.locked[1]@p1"},
		{"tournament", NewTournament, "tourn.flag[0] tourn.flag[1] tourn.flag[2] tourn.flag[3] tourn.turn[0] tourn.turn[1]"},
		{"rtas", NewRTAS, "rtas.lock"},
	} {
		sim, err := tso.NewSimulator(tso.Config{N: 2, Model: tso.DSM}, Build(tc.f))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var names []string
		for _, v := range sim.Memory().Vars() {
			names = append(names, v.String()) // name@pN for a DSM-local variable
		}
		sim.Kill()
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s variables: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestYangAndersonLocalSpinRMRinDSM(t *testing.T) {
	// YA spins only on variables in the spinner's own memory segment, so
	// its DSM RMRs per passage stay O(log N); bakery's grow linearly.
	rmrs := func(f Factory, n int) float64 {
		sim, err := tso.NewSimulator(tso.Config{N: n, Model: tso.DSM}, Build(f))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Kill()
		acc := rmr.Attach(sim, rmr.ModelDSM)
		res, err := tso.Run(sim, tso.NewRoundRobin(), 50_000_000)
		if err != nil || res.Violation != nil {
			t.Fatalf("%v / %v", err, res.Violation)
		}
		return acc.Summarize().MeanRMRs
	}
	ya8, ya16 := rmrs(NewYangAnderson, 8), rmrs(NewYangAnderson, 16)
	bak8, bak16 := rmrs(NewBakery, 8), rmrs(NewBakery, 16)
	yaGrowth := ya16 / ya8
	bakGrowth := bak16 / bak8
	if yaGrowth >= bakGrowth {
		t.Errorf("YA DSM RMR growth %.2fx must beat bakery's %.2fx (ya %0.1f->%0.1f, bakery %0.1f->%0.1f)",
			yaGrowth, bakGrowth, ya8, ya16, bak8, bak16)
	}
}

func TestYangAndersonFencesAreLogN(t *testing.T) {
	fences := func(n int) int {
		_, acc := runLock(t, NewYangAnderson, tso.Config{N: n}, tso.NewRoundRobin(), 10_000_000)
		return acc.Summarize().MaxFences
	}
	f2, f16 := fences(2), fences(16)
	if f16 > 4*f2+8 {
		t.Errorf("YA fences n=2 -> %d, n=16 -> %d; want logarithmic growth", f2, f16)
	}
	if f16 <= f2 {
		t.Errorf("YA fences must grow with tree depth: %d -> %d", f2, f16)
	}
}

func TestMCSLocalSpinConstantRMRUncontended(t *testing.T) {
	// A solo MCS passage costs O(1) RMRs regardless of N.
	rmrs := func(n int) int {
		sim, err := tso.NewSimulator(tso.Config{N: n}, Build(NewMCS))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Kill()
		acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
		for !sim.Done(0) {
			if _, err := sim.Step(0); err != nil {
				t.Fatal(err)
			}
		}
		return acc.Passages(0)[0].RMRs
	}
	r4, r64 := rmrs(4), rmrs(64)
	if r4 != r64 {
		t.Errorf("solo MCS RMRs: n=4 -> %d, n=64 -> %d; want equal", r4, r64)
	}
}

func TestMCSHandoffOrderIsFIFO(t *testing.T) {
	// Under round-robin arrival p0, p1, p2..., the MCS queue hands the
	// lock over in arrival order.
	var order []tso.ProcID
	sim, err := tso.NewSimulator(tso.Config{N: 4}, Build(NewMCS))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kill()
	sim.AddObserver(func(e tso.Event) {
		if e.Kind == tso.EvCS {
			order = append(order, e.P)
		}
	})
	res, err := tso.Run(sim, tso.NewRoundRobin(), 1_000_000)
	if err != nil || !res.Completed {
		t.Fatalf("run: %v", err)
	}
	for i, p := range order {
		if int(p) != i {
			t.Fatalf("handoff order = %v, want FIFO", order)
		}
	}
}
