package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"priceadaptive/internal/vmprog"
)

// TestKnownAnswersMatchRegistry holds the known-answer table to the
// registry's expectations: a VerifyRecoverable workload must be declared
// Recoverable, a Verify workload must not be a broken variant.
func TestKnownAnswersMatchRegistry(t *testing.T) {
	for _, w := range workloads {
		if w.program == "" {
			continue
		}
		e, err := vmprog.LookupEntry(w.program)
		if err != nil {
			t.Fatal(err)
		}
		if e.FixedN != 0 && e.FixedN != w.n {
			t.Errorf("%s: %s supports only n=%d, workload uses n=%d", w.name, w.program, e.FixedN, w.n)
		}
		if w.crash != nil {
			if !e.Recoverable || e.CrashBroken {
				t.Errorf("%s expects RECOVERABLE, registry has %s Recoverable=%t CrashBroken=%t",
					w.name, w.program, e.Recoverable, e.CrashBroken)
			}
		} else if e.Broken {
			t.Errorf("%s expects no violation, registry marks %s Broken", w.name, w.program)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesUnique checks that workload and metric names are well-formed and
// used once.
func TestNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark's tables must
// agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json lists exactly
// the workloads, reasons and metrics the benchmark runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table has %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s/%s/%s, the table %s/%s/%s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", got.Name, got.Bound)
		}
		maxBound = max(maxBound, got.Bound)
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest bound (%g)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s/%s/%s, the table %s/%s/%s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built span tree:
// overlapping children cover their union once, a child reaching past its
// parent covers only the part inside, and grandchildren count against
// their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "check.Verify", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "check.Verify", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "tso.Run", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "vmprog.Hash", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "vmprog.Hash", Start: 45, End: 45},
	}
	selfTimes(spans)
	want := []int64{
		100 - (40 + 10), // [10,50] and [90,100]
		20,
		30 - 10,
		30,
		10,
		0,
	}
	for i, s := range spans {
		if s.SelfNS != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.SelfNS, want[i])
		}
	}
	got := layerSelf(spans)
	wantLayers := map[string]int64{"bench": 50, "check": 40, "tso": 30, "vmprog": 10}
	if len(got) != len(wantLayers) {
		t.Fatalf("layer self times %v, want %v", got, wantLayers)
	}
	for l, v := range wantLayers {
		if got[l] != v {
			t.Errorf("layer %s self %d, want %d", l, got[l], v)
		}
	}
}

// TestAdopt checks that a child process's spans are renumbered under the
// adopting span.
func TestAdopt(t *testing.T) {
	r := &recorder{spans: []span{{ID: 1, Name: "bench.traced"}, {ID: 2, Parent: 1, Name: "bench.child.traced"}}}
	r.adopt(2, []span{{ID: 1, Name: "bench.call"}, {ID: 2, Parent: 1, Name: "check.Verify"}})
	want := []struct{ id, parent int }{{1, 0}, {2, 1}, {3, 2}, {4, 3}}
	for i, s := range r.spans {
		if s.ID != want[i].id || s.Parent != want[i].parent {
			t.Errorf("span %d: id %d parent %d, want %d %d", i, s.ID, s.Parent, want[i].id, want[i].parent)
		}
	}
}

// TestLowerQuartile checks lowerQuartile against the first value of
// Python's statistics.quantiles(xs, n=4) on the same data.
func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{2, 1}, 0.75},
		{[]float64{4, 1, 3, 2}, 1.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75},
	} {
		if got := lowerQuartile(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("lowerQuartile(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
