package adversary

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"priceadaptive/internal/bounds"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{N: 1}); err == nil {
		t.Error("N=1 must be rejected")
	}
	if _, err := Run(context.Background(), Config{N: 4}); err == nil {
		t.Error("missing Algorithm must be rejected")
	}
}

func TestConstructionForcesFencesOnSyntheticLock(t *testing.T) {
	// The synthetic lock is adaptive and read/write-only: the construction
	// must force fences, one per induction step (Theorem 1's conclusion).
	res, err := Run(context.Background(), Config{
		N:         12,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
		Check:     CheckFull,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Certificate != nil {
		t.Fatalf("unexpected certificate: %v", res.Certificate)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if res.FencesForced < 3 {
		t.Errorf("fences forced = %d, want >= 3 (phases: %+v)", res.FencesForced, res.Phases)
	}
	if res.TotalContention != res.FencesForced+1 {
		t.Errorf("contention = %d, want %d", res.TotalContention, res.FencesForced+1)
	}
	if res.Witness < 0 {
		t.Error("missing witness process")
	}
	t.Logf("result: forced=%d contention=%d l=%d remaining=%d stop=%v events=%d",
		res.FencesForced, res.TotalContention, res.CriticalPerActive,
		res.ActiveRemaining, res.Stopped, res.Events)
}

func TestConstructionFencesGrowWithN(t *testing.T) {
	forced := func(n int) int {
		res, err := Run(context.Background(), Config{
			N:         n,
			Algorithm: mutex.Build(mutex.NewSynthetic),
			F:         bounds.Affine{A: 16, C: 10},
			Check:     CheckNone,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Certificate != nil {
			t.Fatalf("n=%d: unexpected certificate: %v", n, res.Certificate)
		}
		return res.FencesForced
	}
	f4, f16 := forced(4), forced(16)
	if f16 <= f4 {
		t.Errorf("forced fences: n=4 -> %d, n=16 -> %d; want growth with N", f4, f16)
	}
}

func TestConstructionCertifiesBakeryNonAdaptive(t *testing.T) {
	// Bakery scans all N processes per passage: against a linear
	// adaptivity claim with small N-independent budget, the construction
	// must produce a non-adaptivity certificate.
	res, err := Run(context.Background(), Config{
		N:         16,
		Algorithm: mutex.Build(mutex.NewBakery),
		F:         bounds.Linear{C: 1},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != StopNonAdaptive {
		t.Fatalf("stopped = %v, want certificate (result %+v)", res.Stopped, res)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("missing certificate")
	}
	if float64(c.CriticalEvents) <= c.Allowed {
		t.Errorf("certificate not exceeding budget: %v", c)
	}
	if c.String() == "" {
		t.Error("certificate must render")
	}
	t.Logf("certificate: %v", c)
}

func TestConstructionRejectsCASAlgorithms(t *testing.T) {
	// mcs and clh issue their CAS with writes still buffered, so the read
	// phase finds them about to commit the CAS's buffer drain.
	for _, name := range []string{"tas", "ttas", "rtas", "anderson", "caschain", "mcs", "clh"} {
		t.Run(name, func(t *testing.T) {
			f, err := mutex.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), Config{
				N:         16,
				Algorithm: mutex.Build(f),
				F:         bounds.Linear{C: 2},
			})
			if !errors.Is(err, ErrUsesCAS) {
				t.Fatalf("Run = %+v, %v; want ErrUsesCAS", res, err)
			}
		})
	}
}

// settleGoroutines yields until at most want goroutines remain, or until a
// bound on the yields runs out, and returns the count it last saw: a killed
// simulator's goroutines finish exiting after Kill returns.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

func TestRunKillsItsFinalSimulator(t *testing.T) {
	// These victims are erased from, and erasure swaps the simulator, so
	// the one the run ends with is not the one it started with.
	for _, name := range []string{"bakery", "bakery-weak", "filter"} {
		t.Run(name, func(t *testing.T) {
			f, err := mutex.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			base := settleGoroutines(0)
			res, err := Run(context.Background(), Config{
				N:         16,
				Algorithm: mutex.Build(f),
				F:         bounds.Affine{A: 16, C: 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			erased := 0
			for _, ph := range res.Phases {
				erased += ph.Erased
			}
			if erased == 0 {
				t.Fatal("the run erased no process, so it never swapped its simulator")
			}
			if got := settleGoroutines(base); got != base {
				t.Fatalf("after Run: %d goroutines, want baseline %d", got, base)
			}
		})
	}
}

func TestWitnessReplayErrorReturned(t *testing.T) {
	// The victim's Build runs the synthetic lock the first time and a
	// program that only enters its CS every time after, so the replay that
	// extracts the witness diverges from the recorded schedule and fails.
	builds := 0
	synthetic := mutex.Build(mutex.NewSynthetic)
	victim := func(sim *tso.Simulator) (tso.Program, error) {
		if builds++; builds == 1 {
			return synthetic(sim)
		}
		return func(p *tso.Proc) { p.CS() }, nil
	}
	res, err := Run(context.Background(), Config{
		N:         4,
		Algorithm: victim,
		F:         bounds.Affine{A: 16, C: 10},
	})
	if err == nil || !strings.Contains(err.Error(), "adversary: witness replay: tso: replay decision") {
		t.Fatalf("Run = %+v, %v; want the witness replay's error", res, err)
	}
	if builds != 2 {
		t.Fatalf("Build ran %d times, want 2: the run and the witness replay", builds)
	}
}

func TestConstructionDetectsExclusionViolation(t *testing.T) {
	// A fake lock that admits everyone immediately: both processes post CS
	// concurrently during the read phase, which the construction must
	// report as an exclusion violation.
	broken := func(sim *tso.Simulator) (tso.Program, error) {
		return func(p *tso.Proc) { p.CS() }, nil
	}
	res, err := Run(context.Background(), Config{N: 4, Algorithm: broken, F: bounds.Linear{C: 1}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != StopViolation || res.Violation == nil {
		t.Fatalf("stopped = %v, want exclusion violation", res.Stopped)
	}
}

func TestConstructionDetectsNonObstructionFreedom(t *testing.T) {
	// A "lock" that spins forever on an untouched variable can never reach
	// a special event after its first read; the solo budget must fire.
	var v *tso.Var
	stuck := func(sim *tso.Simulator) (tso.Program, error) {
		v = sim.Memory().NewVar("never")
		return func(p *tso.Proc) {
			for p.Read(v) == 0 {
			}
			p.CS()
		}, nil
	}
	res, err := Run(context.Background(), Config{N: 3, Algorithm: stuck, F: bounds.Linear{C: 2}, SoloBudget: 500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != StopNotObstructionFree {
		t.Fatalf("stopped = %v, want solo-budget failure", res.Stopped)
	}
}

func TestConstructionMaxInductionCap(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N:            10,
		Algorithm:    mutex.Build(mutex.NewSynthetic),
		F:            bounds.Affine{A: 16, C: 10},
		MaxInduction: 2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != StopMaxInduction {
		t.Fatalf("stopped = %v, want induction cap", res.Stopped)
	}
	if res.FencesForced != 2 {
		t.Errorf("forced = %d, want 2", res.FencesForced)
	}
}

func TestPhaseRecordsShape(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N:            8,
		Algorithm:    mutex.Build(mutex.NewSynthetic),
		F:            bounds.Affine{A: 16, C: 10},
		MaxInduction: 2,
		Check:        CheckInvariants,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Phases) < 6 {
		t.Fatalf("phases recorded = %d, want >= 6 (3 per induction step)", len(res.Phases))
	}
	wantOrder := []string{"read", "write", "regularize"}
	for i, ph := range res.Phases[:6] {
		if ph.Phase != wantOrder[i%3] {
			t.Errorf("phase %d = %s, want %s", i, ph.Phase, wantOrder[i%3])
		}
		if ph.Induction != i/3 {
			t.Errorf("phase %d induction = %d, want %d", i, ph.Induction, i/3)
		}
		if ph.ActiveBefore < ph.ActiveAfter {
			t.Errorf("phase %d active grew: %d -> %d", i, ph.ActiveBefore, ph.ActiveAfter)
		}
	}
}

func TestStopReasonStrings(t *testing.T) {
	for _, r := range []StopReason{StopActiveExhausted, StopMaxInduction, StopNonAdaptive, StopViolation, StopNotObstructionFree} {
		if r.String() == "" {
			t.Errorf("empty string for %d", int(r))
		}
	}
}

func TestConstructionDSMModel(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N:         8,
		Model:     tso.DSM,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Certificate != nil || res.Violation != nil {
		t.Fatalf("unexpected failure: %+v", res)
	}
	if res.FencesForced < 2 {
		t.Errorf("DSM forced fences = %d, want >= 2", res.FencesForced)
	}
}

func TestConstructionCertifiesAllNonAdaptiveReadWriteLocks(t *testing.T) {
	// Every non-adaptive read/write lock in the library must earn a
	// non-adaptivity certificate when it claims linear adaptivity: the
	// construction's second outcome, exercised across algorithms.
	cases := []struct {
		name    string
		factory mutex.Factory
		n       int
	}{
		{"bakery", mutex.NewBakery, 12},
		{"filter", mutex.NewFilter, 12},
		{"tournament", mutex.NewTournament, 12},
		{"yanganderson", mutex.NewYangAnderson, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), Config{
				N:         tc.n,
				Algorithm: mutex.Build(tc.factory),
				F:         bounds.Linear{C: 1},
				Check:     CheckInvariants,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Stopped != StopNonAdaptive {
				t.Fatalf("stopped = %v, want certificate (result %+v)", res.Stopped, res)
			}
			if res.Certificate == nil || float64(res.Certificate.CriticalEvents) <= res.Certificate.Allowed {
				t.Fatalf("bad certificate: %+v", res.Certificate)
			}
			t.Logf("%s: %v", tc.name, res.Certificate)
		})
	}
}

func TestConstructionSyntheticWithFullChecksAtLargerN(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier invariant checking")
	}
	res, err := Run(context.Background(), Config{
		N:         20,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate != nil || res.Violation != nil {
		t.Fatalf("unexpected failure: %+v", res)
	}
	if res.FencesForced < 10 {
		t.Errorf("forced = %d, want >= 10", res.FencesForced)
	}
	// Theorem 1's witness accounting.
	if res.WitnessCritical <= 0 {
		t.Errorf("witness critical = %d", res.WitnessCritical)
	}
}

// The simulator keeps awareness and accessor sets as bitsets of ⌈N/64⌉
// words. The two tests below run the construction past one word, so an
// indexing slip in the second or third word changes a pinned count or trips
// a lemma check here rather than only in the N=256 benchmark.

func TestConstructionBeyondOneWordN130(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N:         130,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
		Check:     CheckNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopActiveExhausted {
		t.Fatalf("stopped = %v, want %v", res.Stopped, StopActiveExhausted)
	}
	if res.FencesForced != 129 {
		t.Errorf("forced = %d, want 129", res.FencesForced)
	}
	if !res.WitnessVerified || res.WitnessParticipants != 130 {
		t.Errorf("witness verified=%t participants=%d, want verified with 130", res.WitnessVerified, res.WitnessParticipants)
	}
	if res.Events != 112385 {
		t.Errorf("events = %d, want 112385", res.Events)
	}
}

func TestConstructionCheckedTwoWordsN65(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant checks at N=65")
	}
	res, err := Run(context.Background(), Config{
		N:         65,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate != nil || res.Violation != nil {
		t.Fatalf("unexpected failure: %+v", res)
	}
	if res.FencesForced != 64 || !res.WitnessVerified {
		t.Errorf("forced = %d, witness verified = %t; want 64 and verified", res.FencesForced, res.WitnessVerified)
	}
}

func TestConstructionAgainstVMPrograms(t *testing.T) {
	// VM lock programs are first-class victims: the construction drives
	// the adapted bakery VM program to a non-adaptivity certificate just
	// like its native Go twin.
	res, err := Run(context.Background(), Config{
		N:         10,
		Algorithm: vmprog.Adapt(vmprog.MustBakery(10, false)),
		F:         bounds.Linear{C: 1},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopNonAdaptive || res.Certificate == nil {
		t.Fatalf("stopped = %v, want certificate", res.Stopped)
	}
	t.Logf("VM bakery certificate: %v", res.Certificate)
}

func TestConstructionCertifiesBurnsLynch(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N:         10,
		Algorithm: mutex.Build(mutex.NewBurnsLynch),
		F:         bounds.Linear{C: 1},
		Check:     CheckInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopNonAdaptive || res.Certificate == nil {
		t.Fatalf("stopped = %v, want certificate (result %+v)", res.Stopped, res)
	}
}

func TestWitnessExtractionVerified(t *testing.T) {
	// The final step of Theorem 1's proof: the extracted witness execution
	// must have total contention FencesForced+1 with the witness having
	// completed FencesForced fences mid-passage.
	res, err := Run(context.Background(), Config{
		N:         14,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         bounds.Affine{A: 16, C: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WitnessVerified {
		t.Fatalf("witness not verified: %+v", res)
	}
	if res.WitnessParticipants != res.FencesForced+1 {
		t.Errorf("participants = %d, want %d", res.WitnessParticipants, res.FencesForced+1)
	}
	t.Logf("witness p%d: %d fences at contention %d (verified)",
		res.Witness, res.FencesForced, res.WitnessParticipants)
}
