package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAlgResolvedByEngine pins that -alg is looked up in the registry of the
// engine that runs it: VM-only programs on the fast engine, goroutine locks
// on the replay engine, and a fixed-size VM program only at its own n.
func TestAlgResolvedByEngine(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		want  string // in the output, or in the error when fails
		fails bool
	}{
		{[]string{"-engine", "fast", "-alg", "dekker"}, "VERIFIED", false},
		{[]string{"-engine", "fast", "-alg", "dekker-nofence"}, "VIOLATION", false},
		{[]string{"-alg", "peterson-nofence", "-n", "2"}, "VIOLATION", false},
		{[]string{"-alg", "dekker"}, "unknown algorithm", true},
		{[]string{"-engine", "fast", "-alg", "peterson", "-n", "3"}, "only n=2", true},
		{[]string{"-engine", "fast", "-alg", "tournament", "-n", "6"}, "only n=4", true},
	} {
		var out bytes.Buffer
		err := run(context.Background(), tc.args, &out)
		got := out.String()
		if err != nil {
			got = err.Error()
		}
		if (err != nil) != tc.fails || !strings.Contains(got, tc.want) {
			t.Errorf("modelcheck %v: err %v, output %q; want %q", tc.args, err, out.String(), tc.want)
		}
	}
}

// TestSaveReplayAndMalformedSchedule runs the doc comment's -save/-replay
// pair, then replays a schedule whose commit names a variable the lock does
// not have: that is an error, not a panic.
func TestSaveReplayAndMalformedSchedule(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "violation.json")
	var out bytes.Buffer
	if err := run(ctx, []string{"-alg", "bakery-weak", "-n", "2", "-ordering", "pso", "-save", path}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(ctx, []string{"-replay", path, "-alg", "bakery-weak"}, &out); err != nil || !strings.Contains(out.String(), "reproduces an exclusion violation") {
		t.Fatalf("replay: err %v, output %q", err, out.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	src := `{"n":2,"passages":1,"model":"CC","ordering":"PSO","decisions":[{"p":0},{"p":0,"commit":true,"var":99}]}`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(ctx, []string{"-replay", bad, "-alg", "bakery-weak"}, &out)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("malformed schedule: err %v, want a range error", err)
	}
}
