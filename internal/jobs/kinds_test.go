package jobs

import (
	"encoding/json"
	"testing"

	"priceadaptive/internal/vmprog"
)

// TestLintJob runs the padlint kind end-to-end through the queue: the full
// registry lint with expectations must pass (the broken variants' errors are
// expected and counted, not failures), and a single-program lint of a broken
// variant must report the raw errors with Pass=false.
func TestLintJob(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), Options{Workers: 2})
	RegisterBuiltins(q)
	q.Start()
	defer q.Close()

	st, _, err := q.Submit(Spec{Kind: KindLint, Params: json.RawMessage(`{"all":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateDone {
		t.Fatalf("padlint -all job: %s (%s)", st.State, st.Error)
	}
	raw, err := q.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res LintResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("artifact is not a LintResult: %v", err)
	}
	if want := len(vmprog.Registry()); len(res.Programs) != want {
		t.Fatalf("linted %d programs, want %d", len(res.Programs), want)
	}
	if !res.Pass {
		for _, pr := range res.Programs {
			if !pr.Pass {
				t.Errorf("%s: gate failed (expect_broken=%v)", pr.Report.Name, pr.ExpectBroken)
			}
		}
		t.Fatal("registry lint did not pass")
	}
	if res.Errors == 0 {
		t.Error("expected the broken variants' errors to be counted")
	}
	for _, pr := range res.Programs {
		if pr.Quant == nil {
			t.Errorf("%s: no quantitative analysis in artifact", pr.Report.Name)
		} else if pr.Quant.Witness == nil {
			t.Errorf("%s: quantitative analysis carries no witness", pr.Report.Name)
		}
	}

	// A direct lint of a broken variant is expectation-free and must fail.
	st, _, err = q.Submit(Spec{Kind: KindLint, Params: json.RawMessage(`{"alg":"peterson-nofence"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateDone {
		t.Fatalf("padlint -alg job: %s (%s)", st.State, st.Error)
	}
	raw, err = q.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var one LintResult
	if err := json.Unmarshal(raw, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Programs) != 1 || one.Pass || one.Errors == 0 {
		t.Fatalf("broken-variant lint: programs=%d pass=%v errors=%d, want 1/false/>0",
			len(one.Programs), one.Pass, one.Errors)
	}

	// Unknown program names surface as job failures, not panics.
	st, _, err = q.Submit(Spec{Kind: KindLint, Params: json.RawMessage(`{"alg":"no-such-lock"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateFailed {
		t.Fatalf("unknown program: %s, want failed", st.State)
	}
}

// TestBudgetErrorCode pins the machine-readable error channel of satellite
// budget failures: a modelcheck job submitted with require_complete and a
// budget too small to finish must fail with Status.ErrorCode = CodeBudget
// (so clients can raise the budget and retry without parsing the message),
// a successful run of the same program carries no code, a run its
// timeout_sec stops carries the same code, and an unrelated failure
// (unknown program) carries no code.
func TestBudgetErrorCode(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), Options{Workers: 2})
	RegisterBuiltins(q)
	q.Start()
	defer q.Close()

	st, _, err := q.Submit(Spec{Kind: KindModelCheck, Params: json.RawMessage(
		`{"alg":"mcs","n":2,"engine":"fast","reduce":"none","max_states":16,"require_complete":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateFailed {
		t.Fatalf("underbudgeted job: %s (%s), want failed", st.State, st.Error)
	}
	if st.ErrorCode != CodeBudget {
		t.Fatalf("underbudgeted job: error_code %q (%s), want %q", st.ErrorCode, st.Error, CodeBudget)
	}

	st, _, err = q.Submit(Spec{Kind: KindModelCheck, Params: json.RawMessage(
		`{"alg":"mcs","n":2,"engine":"fast","reduce":"full","require_complete":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateDone || st.ErrorCode != "" {
		t.Fatalf("completing job: %s error_code=%q, want done with no code", st.State, st.ErrorCode)
	}

	// A timeout that stops the exploration is a time budget: same code.
	st, _, err = q.Submit(Spec{Kind: KindModelCheck, TimeoutSec: 0.05, Params: json.RawMessage(
		`{"alg":"mcs","n":4,"engine":"fast","reduce":"none"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateFailed || st.ErrorCode != CodeBudget {
		t.Fatalf("timed-out job: %s error_code=%q (%s), want failed with %q", st.State, st.ErrorCode, st.Error, CodeBudget)
	}

	st, _, err = q.Submit(Spec{Kind: KindModelCheck, Params: json.RawMessage(
		`{"alg":"no-such-lock","engine":"fast"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateFailed || st.ErrorCode != "" {
		t.Fatalf("unknown program: %s error_code=%q, want failed with no code", st.State, st.ErrorCode)
	}
}
