package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"priceadaptive/internal/vmprog"
)

// TestCrashSearchJob runs the crashsearch kind end-to-end through the
// queue: the rtas job must produce a recoverable verdict plus a verified
// crash witness, a second submission of the same spec must dedupe on job
// identity, and the underlying artifact cache must serve a repeat run with
// an identical result without re-searching.
func TestCrashSearchJob(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), Options{Workers: 2})
	RegisterBuiltins(q)
	q.Start()
	defer q.Close()

	spec := Spec{Kind: KindCrashSearch, Params: json.RawMessage(`{"alg":"rtas","n":2,"budget":8000}`)}
	st, _, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateDone {
		t.Fatalf("crashsearch job: %s (%s)", st.State, st.Error)
	}
	raw, err := q.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res CrashSearchJobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("artifact is not a CrashSearchJobResult: %v", err)
	}
	if res.Verdict == nil || !res.Verdict.Recoverable {
		t.Fatalf("rtas verdict: %+v", res.Verdict)
	}
	if res.Search == nil || res.Search.Witness == nil {
		t.Fatalf("no witness in artifact: %+v", res.Search)
	}
	if !res.Verified {
		t.Error("witness not marked verified")
	}
	if res.Search.Witness.Crashes < 1 || res.Search.Witness.MaxRecoveryRMRs < 1 {
		t.Errorf("witness is trivial: %+v", res.Search.Witness)
	}

	// The cached artifact must make a direct re-run byte-identical.
	factsCache := &FactsCache{Store: q.store, Clock: q.clock}
	again, err := runCrashSearch(context.Background(), spec.Params, factsCache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, &res) {
		t.Errorf("cached re-run diverged:\n%+v\n%+v", again, &res)
	}

	// An unknown program fails the job, not the queue.
	st, _, err = q.Submit(Spec{Kind: KindCrashSearch, Params: json.RawMessage(`{"alg":"no-such-prog"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, q, st.ID); st.State != StateFailed {
		t.Fatalf("bogus crashsearch job: %s", st.State)
	}
}

// TestCrashSearchCacheIgnoresWorkers pins that the worker count is not part
// of a crashsearch artifact's identity: every worker count yields the same
// artifact, so two jobs that differ only in workers (1 and 2) are served
// from one. The artifact the first job stores is marked before the second
// job runs; the second job's result carries the mark only if it was served
// from that artifact rather than computed again.
func TestCrashSearchCacheIgnoresWorkers(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), Options{Workers: 1})
	RegisterBuiltins(q)
	q.Start()
	defer q.Close()

	run := func(params string) *CrashSearchJobResult {
		t.Helper()
		st, _, err := q.Submit(Spec{Kind: KindCrashSearch, Params: json.RawMessage(params)})
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, q, st.ID); st.State != StateDone {
			t.Fatalf("%s: %s (%s)", params, st.State, st.Error)
		}
		raw, err := q.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var res CrashSearchJobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		return &res
	}
	first := run(`{"alg":"rtas","n":2,"budget":2000,"workers":1}`)

	prog, err := vmprog.Lookup("rtas", 2)
	if err != nil {
		t.Fatal(err)
	}
	p := CrashSearchParams{Alg: "rtas", N: 2, Budget: 2000, Workers: 2}
	p.defaults()
	cache := &FactsCache{Store: q.store, Clock: q.clock}
	_, id := crashSearchSpec(cache, prog, &p)
	raw, err := cache.Store.GetResult(id)
	if err != nil {
		t.Fatalf("no stored artifact under the workers=2 identity after the workers=1 job: %v", err)
	}
	var marked CrashSearchJobResult
	if err := json.Unmarshal(raw, &marked); err != nil {
		t.Fatal(err)
	}
	marked.Alg = "rtas (cached)"
	data, err := json.Marshal(&marked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Store.PutResult(id, data); err != nil {
		t.Fatal(err)
	}

	second := run(`{"alg":"rtas","n":2,"budget":2000,"workers":2}`)
	if second.Alg != marked.Alg {
		t.Fatalf("the workers=2 job computed its artifact again instead of serving the workers=1 one")
	}
	second.Alg = first.Alg
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("artifacts differ:\n%+v\n%+v", first, second)
	}
}
