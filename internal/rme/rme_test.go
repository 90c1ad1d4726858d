package rme_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/rme"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func engine(t testing.TB, name string, n int) *vmprog.Engine {
	t.Helper()
	p, err := vmprog.Lookup(name, n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReplayParityWithAccountant is the crash-RMR differential: a crashing
// schedule recorded on the goroutine engine (with rmr.Accountant attached)
// must price identically when replayed through the fast engine by
// rme.ReplayRMR - same passage attempts, same per-attempt RMR and fence
// counts, same recovery tagging, under every cache model. Under DSM the
// simulator's memory is DSM too, so mcs's owned spin flags are local to
// their spinners on both sides.
func TestReplayParityWithAccountant(t *testing.T) {
	const n = 2
	for _, name := range []string{"rtas", "km-rme", "dm-tas", "dm-queue", "tas", "mcs"} {
		for _, model := range rmr.Models() {
			for seed := int64(1); seed <= 5; seed++ {
				p, err := vmprog.Lookup(name, n)
				if err != nil {
					t.Fatal(err)
				}
				cfg := tso.Config{N: n}
				if model == rmr.ModelDSM {
					cfg.Model = tso.DSM
				}
				sim, err := tso.NewSimulator(cfg, vmprog.Adapt(p))
				if err != nil {
					t.Fatal(err)
				}
				acct := rmr.Attach(sim, model)
				_, err = adversary.RunWithCrashes(sim, adversary.CrashConfig{
					Seed: seed, CrashProb: 0.08, TotalCrashes: 2, CommitProb: 0.3,
				}, 20000)
				if err != nil && !errors.Is(err, tso.ErrStepBudget) {
					sim.Kill()
					t.Fatalf("%s/%s seed %d: %v", name, model, seed, err)
				}
				sched := append([]tso.Decision(nil), sim.Execution().Schedule...)

				res, err := rme.ReplayRMR(engine(t, name, n), sched, model)
				if err != nil {
					sim.Kill()
					t.Fatalf("%s/%s seed %d: replay: %v", name, model, seed, err)
				}
				for id := 0; id < n; id++ {
					want := acct.Passages(tso.ProcID(id))
					got := res.Passages[id]
					if len(got) != len(want) {
						sim.Kill()
						t.Fatalf("%s/%s seed %d p%d: %d passage attempts, goroutine engine saw %d",
							name, model, seed, id, len(got), len(want))
					}
					for i := range got {
						if got[i].RMRs != want[i].RMRs || got[i].Fences != want[i].Fences ||
							got[i].Recovery != want[i].Recovery || got[i].Complete != want[i].Complete {
							sim.Kill()
							t.Fatalf("%s/%s seed %d p%d attempt %d: fast=%+v goroutine=%+v",
								name, model, seed, id, i, got[i], want[i])
						}
					}
				}
				sum := acct.Summarize()
				if res.MaxRecoveryRMRs != sum.MaxRecoveryRMRs {
					sim.Kill()
					t.Fatalf("%s/%s seed %d: MaxRecoveryRMRs fast=%d goroutine=%d",
						name, model, seed, res.MaxRecoveryRMRs, sum.MaxRecoveryRMRs)
				}
				sim.Kill()
			}
		}
	}
}

// TestCounterexampleReplays machine-checks the verdict counterexamples: the
// rtas-dirty violation schedule must reproduce an exclusion violation on a
// fresh unreduced engine, and the tas wedge schedule must lead to a state
// with no way forward for the crashed process.
func TestCounterexampleReplays(t *testing.T) {
	ctx := context.Background()
	opts := vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}

	v, err := rme.CheckRecoverability(ctx, engine(t, "rtas-dirty", 2), vmprog.ParallelOpts{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Recoverable || !v.Violation {
		t.Fatalf("rtas-dirty verdict: %s", v)
	}
	eng := engine(t, "rtas-dirty", 2)
	st := eng.Initial()
	for i, d := range v.Counterexample {
		if err := eng.Apply(st, d); err != nil {
			t.Fatalf("counterexample step %d: %v", i, err)
		}
	}
	if !eng.Violated(st) {
		t.Error("rtas-dirty counterexample does not end in an exclusion violation")
	}

	v, err = rme.CheckRecoverability(ctx, engine(t, "tas", 2), vmprog.ParallelOpts{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Recoverable || !v.Stuck {
		t.Fatalf("tas verdict: %s", v)
	}
}

// TestWitnessRoundTripAndTamper pins the witness JSON format and that
// Verify rejects a tampered claim.
func TestWitnessRoundTripAndTamper(t *testing.T) {
	res, err := adversary.CrashSearch(context.Background(), engine(t, "rtas", 2), adversary.CrashSearchConfig{
		Seed: 11, Budget: 8000, MaxCrashes: 2, MaxPerProc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Witness
	if w == nil {
		t.Fatal("no witness")
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back rme.Witness
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*w, back) {
		t.Fatalf("round trip changed the witness:\n%+v\n%+v", *w, back)
	}
	if err := back.Verify(engine(t, "rtas", 2)); err != nil {
		t.Fatalf("round-tripped witness failed verification: %v", err)
	}
	back.MaxRecoveryRMRs++
	if err := back.Verify(engine(t, "rtas", 2)); err == nil {
		t.Error("tampered witness verified")
	}
	back.MaxRecoveryRMRs--
	back.Program = "tas"
	if err := back.Verify(engine(t, "rtas", 2)); err == nil {
		t.Error("witness for a different program verified")
	}
}
