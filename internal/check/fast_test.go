package check

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// verdict renders the observable outcome of a verification. Reduction must
// never change it - state and transition counts may shrink, the answer may
// not.
func verdict(res *vmprog.CheckResult) string {
	return fmt.Sprintf("violation=%v complete=%v", res.Violation, res.Complete)
}

// reductionReportEntry is one row of the differential report the CI step
// uploads (REDUCTION_REPORT=path).
type reductionReportEntry struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	PSO       bool   `json:"pso,omitempty"`
	Violated  bool   `json:"violated"`
	Symmetric bool   `json:"symmetric"`
	None      int    `json:"none_states"`
	Ample     int    `json:"ample_states"`
	Full      int    `json:"full_states"`
}

// TestReductionDifferential runs every registry program through Verify in
// every reduction mode - none, ample, full - and requires each mode's
// verdict to equal the unreduced reference search's (oracleCheck). Any
// violation schedule found by a reduced run must replay to a violation on
// an unreduced engine, so a reduction bug cannot hide behind a lucky
// verdict match. The PSO ordering is covered too for the size-parametric
// programs (the buffered-commit decisions exercise the schedule
// translation's variable remapping). When REDUCTION_REPORT names a file,
// the per-program comparison is written there as JSON for the CI artifact.
func TestReductionDifferential(t *testing.T) {
	var report []reductionReportEntry
	for _, e := range vmprog.Registry() {
		for _, pso := range []bool{false, true} {
			name := e.Name
			if pso {
				name += "/pso"
			}
			t.Run(name, func(t *testing.T) {
				n := 2
				if e.FixedN > 0 {
					n = e.FixedN
				}
				if n > 2 && (testing.Short() || pso) {
					t.Skip("large state space")
				}
				p, err := e.Build(n)
				if err != nil {
					t.Fatal(err)
				}
				ord := tso.TSO
				if pso {
					ord = tso.PSO
				}
				ctx := context.Background()
				budget := 1 << 22
				ref, err := oracleCheck(plainEngine(t, p, n, ord), budget)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				res := map[ReduceMode]*vmprog.CheckResult{}
				for _, mode := range []ReduceMode{ReduceNone, ReduceAmple, ReduceFull} {
					r, err := Verify(ctx, p, n, WithOrdering(ord), WithMaxStates(budget), WithReduce(mode))
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					if got, want := verdict(r), verdict(ref); got != want {
						t.Fatalf("%s verdict %q, oracle %q", mode, got, want)
					}
					if r.Violation {
						// Replay the run's counterexample, translated back to
						// the real frame, without any reduction.
						replayViolationOn(t, p, n, ord, r.Schedule)
					}
					res[mode] = r
				}
				plain := res[ReduceNone]
				for _, mode := range []ReduceMode{ReduceAmple, ReduceFull} {
					// Violated runs stop at the first counterexample, so
					// their counts measure time-to-bug and depend on search
					// order; only complete explorations must shrink.
					if red := res[mode]; !plain.Violation && red.States > plain.States {
						t.Fatalf("%s grew the state space: %d > %d", mode, red.States, plain.States)
					}
				}
				if !plain.Violation && res[ReduceFull].AmpleSteps == 0 {
					t.Errorf("reduction facts never applied (AmpleSteps=0)")
				}
				pr, err := por.Analyze(p, n)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("states oracle=%d none=%d ample=%d full=%d, symmetric=%v",
					ref.States, plain.States, res[ReduceAmple].States, res[ReduceFull].States, pr.Symmetric)
				report = append(report, reductionReportEntry{
					Name: e.Name, N: n, PSO: pso,
					Violated:  plain.Violation,
					Symmetric: pr.Symmetric,
					None:      plain.States,
					Ample:     res[ReduceAmple].States,
					Full:      res[ReduceFull].States,
				})
			})
		}
	}
	if path := os.Getenv("REDUCTION_REPORT"); path != "" && !t.Failed() {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFastVerifyStaleFacts pins the typed rejection of outdated fact
// payloads: deserialized facts carrying an older version must fail Verify
// with vmprog.ErrStaleFacts instead of silently exploring unreduced.
func TestFastVerifyStaleFacts(t *testing.T) {
	p := vmprog.MustPeterson(true)
	facts, err := por.Facts(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	stale := *facts
	stale.Version--
	_, err = Verify(context.Background(), p, 2, WithFacts(&stale))
	if !errors.Is(err, vmprog.ErrStaleFacts) {
		t.Fatalf("want ErrStaleFacts, got %v", err)
	}
}

// TestParseReduceMode pins the flag surface.
func TestParseReduceMode(t *testing.T) {
	for s, want := range map[string]ReduceMode{
		"": ReduceFull, "none": ReduceNone, "ample": ReduceAmple, "full": ReduceFull,
	} {
		got, err := ParseReduceMode(s)
		if err != nil || got != want {
			t.Errorf("ParseReduceMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseReduceMode("everything"); err == nil {
		t.Error("ParseReduceMode accepted an unknown mode")
	}
}

// BenchmarkFastVerifyReduction measures the state-space reduction each mode
// buys on full explorations of correct locks. The "states" metric is the
// explored state count; compare the per-mode rows.
func BenchmarkFastVerifyReduction(b *testing.B) {
	for _, alg := range []string{"peterson", "bakery", "mcs", "caschain"} {
		e, err := vmprog.LookupEntry(alg)
		if err != nil {
			b.Fatal(err)
		}
		n := 2
		if e.FixedN > 0 {
			n = e.FixedN
		}
		p, err := e.Build(n)
		if err != nil {
			b.Fatal(err)
		}
		states := map[ReduceMode]int{}
		for _, mode := range []ReduceMode{ReduceNone, ReduceAmple, ReduceFull} {
			mode := mode
			b.Run(fmt.Sprintf("%s/reduce=%s", alg, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := Verify(context.Background(), p, n, WithReduce(mode))
					if err != nil {
						b.Fatal(err)
					}
					if res.Violation || !res.Complete {
						b.Fatalf("unexpected result: %s", verdict(res))
					}
					states[mode] = res.States
				}
				b.ReportMetric(float64(states[mode]), "states")
			})
		}
		if states[ReduceNone] > 0 {
			b.Logf("%s: %d -> %d -> %d states", alg,
				states[ReduceNone], states[ReduceAmple], states[ReduceFull])
		}
	}
}
