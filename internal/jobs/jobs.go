// Package jobs is the experiment job-queue service: a bounded worker pool
// that executes registered job kinds (the E1..E11 experiment runners, bounded
// model-check runs) with per-job cancellation and deadlines, backed by a
// content-addressed on-disk store that persists job specs, status transitions
// and result artifacts.
//
// Job identity is the hash of (kind, canonicalized params, code version), so
// resubmitting an identical spec is served from the artifact cache instead of
// re-running. On startup the store is rescanned: jobs that were queued or
// running when the previous process died are re-queued, and orphaned artifact
// directories are reconciled (simq-style crash recovery).
//
// The same Queue powers both the long-running HTTP server (cmd/padserver)
// and the CLI (cmd/priceadaptive -parallel N): one execution path.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// CodeVersion participates in job identity: bump it when a runner's behavior
// changes so stale cached artifacts are not served for new code.
const CodeVersion = "4"

// Spec is a job submission. Kind and Params define the job's identity;
// TimeoutSec is execution metadata and does not participate in the hash.
type Spec struct {
	// Kind names a registered runner ("experiment", "modelcheck", ...).
	Kind string `json:"kind"`
	// Params is the kind-specific parameter object.
	Params json.RawMessage `json:"params,omitempty"`
	// TimeoutSec bounds the job's wall-clock execution time; 0 means the
	// queue's default timeout (which may be none).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// ID returns the job's content address: hex(sha256(kind, canonical params,
// code version)). Two specs whose params differ only in JSON key order or
// whitespace share an ID.
func (s Spec) ID() (string, error) {
	if s.Kind == "" {
		return "", fmt.Errorf("jobs: spec has no kind")
	}
	canon, err := canonicalJSON(s.Params)
	if err != nil {
		return "", fmt.Errorf("jobs: params of %q: %w", s.Kind, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s", s.Kind, canon, CodeVersion)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// canonicalJSON re-encodes raw JSON deterministically: object keys sorted,
// no insignificant whitespace, number literals preserved verbatim. An empty
// message canonicalizes to "null".
func canonicalJSON(raw json.RawMessage) (string, error) {
	if len(bytes.TrimSpace(raw)) == 0 {
		return "null", nil
	}
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := writeCanonical(&b, v); err != nil {
		return "", err
	}
	return b.String(), nil
}

func writeCanonical(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.Write(kb)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
		return nil
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
		return nil
	case json.Number:
		b.WriteString(x.String())
		return nil
	default:
		eb, err := json.Marshal(x)
		if err != nil {
			return err
		}
		b.Write(eb)
		return nil
	}
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Queued and Running survive in the store across a
// crash and are re-queued by Recover; Done, Failed and Cancelled are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is the persisted record of a job's progress.
type Status struct {
	// ID is the job's content address.
	ID string `json:"id"`
	// Kind mirrors the spec for list filtering without a second read.
	Kind string `json:"kind"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Error holds the failure message when State is failed (or the cancel
	// cause when cancelled mid-run).
	Error string `json:"error,omitempty"`
	// ErrorCode is the machine-readable classification of Error (a Code*
	// envelope constant): CodeBudget when the run exhausted an exploration
	// budget without reaching a verdict, CodeStaleFacts when cached
	// reduction facts predate the current facts version, empty when the
	// failure is unclassified.
	ErrorCode string `json:"error_code,omitempty"`
	// Attempts counts how many times a worker picked the job up; > 1 means
	// the job was recovered after a crash or resubmitted after a failure.
	Attempts int `json:"attempts"`
	// CreatedAt, StartedAt and FinishedAt are wall-clock transition times.
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	// Duration is the wall-clock execution time of the last attempt, in
	// nanoseconds.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// ResultSum is the sha256 of the persisted result artifact's bytes,
	// recorded at the done transition. Recover and VerifyArtifacts re-hash
	// the artifact against it to detect torn or corrupted results.
	ResultSum string `json:"result_sum,omitempty"`
}
