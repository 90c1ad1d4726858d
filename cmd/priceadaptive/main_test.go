package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runJSON runs the CLI path with -json into a decoded payload.
func runJSON(t *testing.T, ids []string, parallel int, cache string) (jsonOutput, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), ids, true, parallel, cache, &buf); err != nil {
		t.Fatalf("run(parallel=%d): %v", parallel, err)
	}
	var out jsonOutput
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// stripTiming zeroes the wall-clock fields so runs are comparable.
func stripTiming(out *jsonOutput) {
	for _, rep := range out.Reports {
		rep.StartedAt = time.Time{}
		rep.Duration = 0
	}
}

// TestParallelMatchesSequential asserts the acceptance criterion: -parallel N
// produces byte-identical -json reports (modulo the timing fields) to the
// sequential path, and the payload names the experiment set actually run.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{"e4", "e5", "e2"}
	seq, _ := runJSON(t, append([]string(nil), ids...), 1, "")
	par, _ := runJSON(t, append([]string(nil), ids...), 4, "")

	wantIDs := []string{"e4", "e5", "e2"}
	for i, id := range wantIDs {
		if seq.Experiments[i] != id || par.Experiments[i] != id {
			t.Fatalf("experiment set: seq=%v par=%v want %v", seq.Experiments, par.Experiments, wantIDs)
		}
	}
	stripTiming(&seq)
	stripTiming(&par)
	seqB, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parB, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqB, parB) {
		t.Errorf("parallel output diverges from sequential:\n%s\nvs\n%s", seqB, parB)
	}
}

// TestPersistentCacheServesSecondRun asserts that a second run over the same
// -cache directory is served from the artifact store, byte-identically
// (cached reports keep their original timing, so no stripping is needed).
func TestPersistentCacheServesSecondRun(t *testing.T) {
	dir := t.TempDir()
	_, first := runJSON(t, []string{"e4"}, 1, dir)
	_, second := runJSON(t, []string{"e4"}, 1, dir)
	if !bytes.Equal(first, second) {
		t.Errorf("cached re-run differs:\n%s\nvs\n%s", first, second)
	}
}

// TestExperimentTablesGolden pins every E1-E11 table, cell for cell, against
// testdata/tables.golden: the default run's output with its "took:" timing
// lines dropped. The tables are the repository's reproduction of the paper,
// and the locks behind them are defined in internal/vmprog and
// internal/mutex, so any change to a lock, a simulator or a checker that
// moves a number fails here. E8 (random schedules of peterson, about 10 s
// without the race detector) runs only without -short. Regenerate after a
// deliberate change with
//
//	go run ./cmd/priceadaptive | grep -v '^took: ' > cmd/priceadaptive/testdata/tables.golden
func TestExperimentTablesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var want strings.Builder
	for _, section := range strings.SplitAfter(string(raw), "\n\n") {
		if section == "" {
			continue
		}
		id, _, ok := strings.Cut(strings.TrimPrefix(section, "== "), ":")
		if !ok {
			t.Fatalf("golden section without an experiment header: %q", section)
		}
		if testing.Short() && id == "E8" {
			continue
		}
		ids = append(ids, strings.ToLower(id))
		want.WriteString(section)
	}
	var out bytes.Buffer
	if err := run(context.Background(), ids, false, 2, "", &out); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "took: ") {
			got.WriteString(line)
		}
	}
	if got.String() != want.String() {
		t.Errorf("experiment tables drifted from testdata/tables.golden:\n--- got\n%s\n--- want\n%s", got.String(), want.String())
	}
}

// TestUnknownExperiment rejects bad ids before submitting anything.
func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"e99"}, false, 1, "", &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
