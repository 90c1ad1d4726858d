package fabric

import (
	"encoding/json"
	"os"
	"testing"
)

// TestFleetChaosConvergence is the fabric's end-to-end robustness gate: 25
// seeded kill/restart cycles of a 1-dispatcher/3-worker fleet — every cycle
// kills or closes worker nodes mid-flight, one seeded cycle restarts the
// dispatcher itself — under injected store, worker and context faults, then
// a fault-free convergence pass. The fleet must converge: no lost jobs, no
// duplicated side effects (no recorded artifact checksum ever changes),
// every artifact on every store intact.
//
// Set FLEET_CHAOS_REPORT=<path> to persist the JSON report (CI uploads it).
func TestFleetChaosConvergence(t *testing.T) {
	rep, err := FleetChaos(t.TempDir(), FleetChaosOptions{Seed: 20260808, Cycles: 25})
	if err != nil {
		t.Fatalf("fleet chaos harness: %v", err)
	}
	if path := os.Getenv("FLEET_CHAOS_REPORT"); path != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr == nil {
			merr = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if merr != nil {
			t.Errorf("write fleet chaos report: %v", merr)
		}
	}
	t.Logf("fleet chaos: %d cycles (%d node kills, %d clean closes, %d dispatcher restarts), %d submitted, %d distinct, %d assignments, %d reassignments, %d lease expiries, %d node deaths, %d integrity rejects, %d replications",
		rep.Cycles, rep.NodeKills, rep.NodeCloses, rep.DispatcherRestarts,
		rep.Submitted, rep.DistinctJobs, rep.Assignments, rep.Reassignments,
		rep.LeaseExpiries, rep.NodeDeaths, rep.IntegrityRejects, rep.Replications)
	if !rep.Converged {
		t.Fatalf("fleet did not converge: lost=%v dup_effects=%v divergent=%d dispatcher=%+v workers=%+v",
			rep.Lost, rep.DupEffects, rep.Divergent, rep.DispatcherIntegrity, rep.WorkerIntegrity)
	}
	// Guard against a vacuous pass: the seed must actually have exercised
	// hard node kills, the dispatcher restart, and lease-driven recovery.
	if rep.NodeKills == 0 {
		t.Error("seed produced no hard node kills — kill plumbing is dead")
	}
	if rep.NodeCloses == 0 {
		t.Error("seed produced no clean node closes")
	}
	if rep.DispatcherRestarts != 1 {
		t.Errorf("dispatcher restarts = %d, want exactly 1", rep.DispatcherRestarts)
	}
	if rep.NodeKills+rep.NodeCloses < 25 {
		t.Errorf("only %d node kill/close events — fewer than one per cycle", rep.NodeKills+rep.NodeCloses)
	}
	if rep.Reassignments == 0 && rep.NodeDeaths == 0 {
		t.Error("no reassignment or node death ever happened — lease recovery went unexercised")
	}
	if rep.Replications == 0 {
		t.Error("no artifact was ever replicated dispatcher-side")
	}
}

// TestFleetChaosDeterministicSchedule: the kill/close schedule, the
// dispatcher-restart cycle and the submission mix are pure functions of the
// seed, and no cycle's settle wait runs out its 30 s deadline: under the
// injected faults every job still finishes within its cycle.
func TestFleetChaosDeterministicSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := FleetChaosOptions{Seed: 11, Cycles: 6}
	a, err := FleetChaos(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetChaos(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodeKills != b.NodeKills || a.NodeCloses != b.NodeCloses || a.Submitted != b.Submitted {
		t.Fatalf("same seed diverged: run1 kills=%d closes=%d submitted=%d, run2 kills=%d closes=%d submitted=%d",
			a.NodeKills, a.NodeCloses, a.Submitted, b.NodeKills, b.NodeCloses, b.Submitted)
	}
	if !a.Converged || !b.Converged {
		t.Fatalf("convergence: run1=%v run2=%v", a.Converged, b.Converged)
	}
	if a.WaitTimeouts != 0 || b.WaitTimeouts != 0 {
		t.Fatalf("settle waits out of deadline: run1=%d run2=%d, want 0", a.WaitTimeouts, b.WaitTimeouts)
	}
}
