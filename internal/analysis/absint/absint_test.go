package absint

import (
	"context"
	"testing"

	"priceadaptive/internal/rme"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

func TestIntervalOps(t *testing.T) {
	iv := Interval{Min: 1, Max: 3}
	for v, want := range map[int]bool{0: false, 1: true, 3: true, 4: false} {
		if iv.Contains(v) != want {
			t.Errorf("Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	unb := Interval{Min: 2, Max: Unbounded}
	if !unb.Contains(1000) || unb.Contains(1) {
		t.Errorf("unbounded Contains wrong: %v %v", unb.Contains(1000), unb.Contains(1))
	}
	if !unb.ContainsAtLeast(500) || iv.ContainsAtLeast(4) || !iv.ContainsAtLeast(3) {
		t.Error("ContainsAtLeast wrong")
	}
	if got := hull(iv, unb).String(); got != "[1,inf]" {
		t.Errorf("hull = %s", got)
	}
	if got := hull(Interval{2, 5}, Interval{1, 3}).String(); got != "[1,5]" {
		t.Errorf("hull = %s", got)
	}
}

// registry instantiates every registry program at its natural process
// count for these tests.
func registry(t *testing.T) map[string]*vmprog.Program {
	t.Helper()
	out := make(map[string]*vmprog.Program)
	for _, e := range vmprog.Registry() {
		n := e.FixedN
		if n == 0 {
			n = 2
		}
		p, err := e.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out[e.Name] = p
	}
	return out
}

func regN(e vmprog.Entry) int {
	if e.FixedN != 0 {
		return e.FixedN
	}
	return 2
}

// TestStaticExpectations pins the static intervals of well-understood
// locks: the analyzer's answers are part of the contract, not just
// "some sound interval".
func TestStaticExpectations(t *testing.T) {
	progs := registry(t)
	cases := []struct {
		name              string
		entry, exit, pass string
		dsmMin            int
	}{
		{"peterson", "[1,1]", "[1,1]", "[2,2]", 4},
		{"bakery", "[2,2]", "[1,1]", "[3,3]", 4},
		{"filter", "[1,1]", "[1,1]", "[2,2]", 4},
		{"tournament", "[2,2]", "[1,1]", "[3,3]", 8},
		{"tas", "[1,inf]", "[1,1]", "[2,inf]", 2},
		// locked is owned: an access that may reach it may be local.
		{"mcs", "[1,inf]", "[1,2]", "[2,inf]", 4},
		{"dekker-nofence", "[0,0]", "[0,0]", "[0,0]", 0},
		{"peterson-nofence", "[0,0]", "[0,0]", "[0,0]", 0},
		{"synthetic-nofence", "[0,0]", "[0,0]", "[0,0]", 0},
	}
	for _, c := range cases {
		p := progs[c.name]
		res, err := Analyze(p, analysisN(c.name))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.FencesEntry.String(); got != c.entry {
			t.Errorf("%s entry fences = %s, want %s", c.name, got, c.entry)
		}
		if got := res.FencesExit.String(); got != c.exit {
			t.Errorf("%s exit fences = %s, want %s", c.name, got, c.exit)
		}
		if got := res.FencesPassage.String(); got != c.pass {
			t.Errorf("%s passage fences = %s, want %s", c.name, got, c.pass)
		}
		if res.RMRPassage.DSM.Min != c.dsmMin {
			t.Errorf("%s DSM min = %d, want %d", c.name, res.RMRPassage.DSM.Min, c.dsmMin)
		}
	}
}

// analysisN returns the process count the static expectation table
// assumes for each named program.
func analysisN(name string) int {
	if name == "tournament" {
		return 4
	}
	return 2
}

// TestBrokenVariantsNameViolatedBound checks the gate requirement that
// every fence-stripped broken variant gets a Theorem 1 violation naming
// the bound, backed by a zero-fence witness.
func TestBrokenVariantsNameViolatedBound(t *testing.T) {
	progs := registry(t)
	for _, name := range []string{"dekker-nofence", "peterson-nofence", "synthetic-nofence"} {
		res, err := Analyze(progs[name], analysisN(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, d := range res.Errors() {
			if d.Code == "fence-bound-entry" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no fence-bound-entry error; diags: %v", name, res.Diags)
		}
		if res.Theorem1 == nil || !res.Theorem1.Violated || res.Theorem1.Bound == "" {
			t.Errorf("%s: Theorem1 check did not name the violated bound: %+v", name, res.Theorem1)
		}
		if res.Witness == nil || res.Witness.EntryFences != 0 {
			t.Errorf("%s: expected a zero-entry-fence witness", name)
		}
	}
	// synthetic-nofence declares adaptivity it cannot deliver at scale.
	res, err := Analyze(progs["synthetic-nofence"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theorem1.BreaksAtLog2N <= 0 {
		t.Errorf("synthetic-nofence: expected a finite breaking scale, got %+v", res.Theorem1)
	}
}

// TestDifferentialRegistry is the machine-check of the analyzer: for
// every registry lock, every per-passage count observed by exhaustive
// exploration of the fast engine must lie inside the static intervals,
// and the emitted witness must replay to its claimed event sequence
// (Analyze internally replays and containment-checks the witness). The
// witness's RMR counts must also be what rme.ReplayRMR, which prices an
// owned array's element as local to its owner, charges its schedule.
func TestDifferentialRegistry(t *testing.T) {
	budget := 400000
	if testing.Short() {
		budget = 60000
	}
	for _, e := range vmprog.Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			n := regN(e)
			p, err := e.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Analyze(p, n)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			obs, err := Observe(context.Background(), p, n, budget)
			if err != nil {
				t.Fatalf("observe: %v", err)
			}
			if obs.Passages == 0 {
				t.Fatal("exploration observed no completed passage")
			}
			if err := obs.CheckAgainst(res); err != nil {
				t.Errorf("differential: %v", err)
			}
			w := res.Witness
			if w == nil {
				t.Fatal("no solo witness")
			}
			if err := w.Replay(p); err != nil {
				t.Errorf("witness replay: %v", err)
			}
			eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				t.Fatal(err)
			}
			sched := make([]tso.Decision, len(w.Schedule))
			for i, d := range w.Schedule {
				sched[i] = d.tso()
			}
			for mi, model := range rmr.Models() {
				rr, err := rme.ReplayRMR(eng, sched, model)
				if err != nil {
					t.Fatalf("%v replay: %v", model, err)
				}
				if got := rr.Passages[w.Proc][0].RMRs; got != w.Counts.RMR[mi] {
					t.Errorf("%v: witness claims %d RMRs, rme.ReplayRMR charges %d", model, w.Counts.RMR[mi], got)
				}
			}
		})
	}
}

// TestWitnessTamperDetected ensures replay actually verifies: any edit
// to the claimed trace or counts must fail.
func TestWitnessTamperDetected(t *testing.T) {
	progs := registry(t)
	p := progs["peterson"]
	w, err := SoloWitness(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(p); err != nil {
		t.Fatalf("untampered witness failed: %v", err)
	}
	tampered := *w
	tampered.Events = append([]TraceEvent(nil), w.Events...)
	tampered.Events[len(tampered.Events)/2].Kind = "forward"
	if err := tampered.Replay(p); err == nil {
		t.Error("tampered event trace replayed successfully")
	}
	tampered2 := *w
	tampered2.Counts.Fences++
	if err := tampered2.Replay(p); err == nil {
		t.Error("tampered counts replayed successfully")
	}
}

// TestDifferentialDetectsUnsoundClaims is the negative control for the
// harness itself: artificially tightened intervals must be caught.
func TestDifferentialDetectsUnsoundClaims(t *testing.T) {
	progs := registry(t)
	p := progs["peterson"]
	res, err := Analyze(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := Observe(context.Background(), p, 2, 200000)
	if err != nil {
		t.Fatal(err)
	}
	bogus := *res
	bogus.FencesPassage = Interval{Min: 0, Max: 1} // true value is exactly 2
	if err := obs.CheckAgainst(&bogus); err == nil {
		t.Error("tightened fence interval not detected")
	}
	bogus = *res
	bogus.RMRPassage.DSM = Interval{Min: res.RMRPassage.DSM.Min + 10, Max: Unbounded}
	if err := obs.CheckAgainst(&bogus); err == nil {
		t.Error("raised DSM minimum not detected")
	}
}

// prog builds a minimal valid program around the given body (vars x, y).
func prog(t *testing.T, name string, code []vmprog.Instr) *vmprog.Program {
	t.Helper()
	p := &vmprog.Program{Name: name, Vars: []string{"x", "y"}, Code: code}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestInfeasibleBranch: a branch on propagated constants that can never
// be taken is reported and excluded from the intervals.
func TestInfeasibleBranch(t *testing.T) {
	p := prog(t, "infeasible", []vmprog.Instr{
		{Op: vmprog.OpConst, A: 0, Imm: 1},
		{Op: vmprog.OpConst, A: 1, Imm: 2},
		// Never equal: the taken edge (to the extra fence) is infeasible.
		{Op: vmprog.OpJumpIfEq, A: 0, B: 1, Target: 6},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpCS},
		{Op: vmprog.OpHalt},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpJump, Target: 3},
		{Op: vmprog.OpHalt},
	})
	res, err := Analyze(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FencesPassage.String(); got != "[1,1]" {
		t.Errorf("passage fences = %s, want [1,1] (infeasible double-fence path excluded)", got)
	}
	found := false
	for _, d := range res.Diags {
		if d.Code == "infeasible-code" {
			found = true
		}
	}
	if !found {
		t.Errorf("no infeasible-code diagnostic: %v", res.Diags)
	}
}

// TestBadAddress: a definitely out-of-table indexed access is an error.
func TestBadAddress(t *testing.T) {
	p := prog(t, "bad-address", []vmprog.Instr{
		{Op: vmprog.OpConst, A: 0, Imm: 99},
		{Op: vmprog.OpRead, A: 1, Base: 0, Index: 0},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpCS},
		{Op: vmprog.OpHalt},
	})
	res, err := Analyze(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Errors() {
		if d.Code == "bad-address" {
			found = true
		}
	}
	if !found {
		t.Errorf("no bad-address error: %v", res.Diags)
	}
	// The fault kills the path: nothing past the read is feasible.
	for _, d := range res.Diags {
		if d.Code == "cs-unreachable" {
			return
		}
	}
	t.Errorf("expected cs-unreachable after the faulting read: %v", res.Diags)
}

// TestMustCommitMinimum: a fenced write is charged its commit in the
// static DSM minimum, but a write that may coalesce with a later one is
// not double-charged.
func TestMustCommitMinimum(t *testing.T) {
	fenced := prog(t, "fenced-write", []vmprog.Instr{
		{Op: vmprog.OpConst, A: 0, Imm: 1},
		{Op: vmprog.OpWrite, A: 0, Base: 0, Index: -1},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpCS},
		{Op: vmprog.OpHalt},
	})
	res, err := Analyze(fenced, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMRPassage.DSM.Min != 1 {
		t.Errorf("fenced write DSM min = %s, want min 1 (commit is guaranteed)", res.RMRPassage.DSM)
	}
	coalesce := prog(t, "coalesced-writes", []vmprog.Instr{
		{Op: vmprog.OpConst, A: 0, Imm: 1},
		{Op: vmprog.OpWrite, A: 0, Base: 0, Index: -1},
		{Op: vmprog.OpWrite, A: 0, Base: 0, Index: -1},
		{Op: vmprog.OpFence},
		{Op: vmprog.OpCS},
		{Op: vmprog.OpHalt},
	})
	res, err = Analyze(coalesce, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two issues, one coalesced entry: exactly one commit both ways.
	if res.RMRPassage.DSM.Min != 1 {
		t.Errorf("coalesced writes DSM min = %s, want 1", res.RMRPassage.DSM)
	}
	obs, err := Observe(context.Background(), coalesce, 2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckAgainst(res); err != nil {
		t.Errorf("differential: %v", err)
	}
	if obs.RMR[0].Min != 1 {
		t.Errorf("observed DSM min = %d, want 1 (TSO coalesces the pair)", obs.RMR[0].Min)
	}
}

// TestAnalyzeInvalidProgram mirrors package analysis: validation
// failures become a diagnostic, not a crash.
func TestAnalyzeInvalidProgram(t *testing.T) {
	p := &vmprog.Program{Name: "no-halt", Vars: []string{"x"}, Code: []vmprog.Instr{{Op: vmprog.OpCS}}}
	res, err := Analyze(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors()) != 1 || res.Errors()[0].Code != "invalid-program" {
		t.Errorf("diags = %v", res.Diags)
	}
	if res.Theorem1 != nil || res.Witness != nil {
		t.Error("invalid program should produce no deeper results")
	}
}
