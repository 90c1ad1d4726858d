package check

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"priceadaptive/internal/tso"
)

// scheduleFile is the JSON serialization of a schedule, a portable
// reproduction artifact for bugs the checker finds.
type scheduleFile struct {
	// N, Passages, Model and Ordering pin the configuration the schedule
	// was recorded against.
	N        int    `json:"n"`
	Passages int    `json:"passages"`
	Model    string `json:"model"`
	Ordering string `json:"ordering"`
	// Decisions is the schedule itself.
	Decisions []decisionJSON `json:"decisions"`
}

type decisionJSON struct {
	P        int  `json:"p"`
	Commit   bool `json:"commit,omitempty"`
	VarPlus1 int  `json:"var,omitempty"`
	Crash    bool `json:"crash,omitempty"`
}

// SaveSchedule writes a schedule and its configuration as JSON. Zero-valued
// config fields are normalized to their defaults (CC, TSO, one passage).
func SaveSchedule(w io.Writer, cfg tso.Config, sched []tso.Decision) error {
	if cfg.Model == 0 {
		cfg.Model = tso.CC
	}
	if cfg.Ordering == 0 {
		cfg.Ordering = tso.TSO
	}
	sf := scheduleFile{
		N:        cfg.N,
		Passages: cfg.Passages,
		Model:    cfg.Model.String(),
		Ordering: cfg.Ordering.String(),
	}
	if sf.Passages == 0 {
		sf.Passages = 1
	}
	for _, d := range sched {
		sf.Decisions = append(sf.Decisions, decisionJSON{P: int(d.P), Commit: d.Commit, VarPlus1: d.VarPlus1, Crash: d.Crash})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sf)
}

// LoadSchedule reads a schedule saved by SaveSchedule and returns the pinned
// configuration and decisions.
func LoadSchedule(r io.Reader) (tso.Config, []tso.Decision, error) {
	var sf scheduleFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return tso.Config{}, nil, fmt.Errorf("check: decode schedule: %w", err)
	}
	cfg := tso.Config{N: sf.N, Passages: sf.Passages}
	switch sf.Model {
	case "DSM":
		cfg.Model = tso.DSM
	case "CC", "":
		cfg.Model = tso.CC
	default:
		return tso.Config{}, nil, fmt.Errorf("check: unknown model %q", sf.Model)
	}
	switch sf.Ordering {
	case "PSO":
		cfg.Ordering = tso.PSO
	case "TSO", "":
		cfg.Ordering = tso.TSO
	default:
		return tso.Config{}, nil, fmt.Errorf("check: unknown ordering %q", sf.Ordering)
	}
	out := make([]tso.Decision, 0, len(sf.Decisions))
	for _, d := range sf.Decisions {
		out = append(out, tso.Decision{P: tso.ProcID(d.P), Commit: d.Commit, VarPlus1: d.VarPlus1, Crash: d.Crash})
	}
	return cfg, out, nil
}

// Reproduces reports whether replaying the schedule triggers an exclusion
// violation. Schedules may stop being directly applicable after a program
// change; an application error reads as "does not reproduce" with the error
// attached.
func Reproduces(cfg tso.Config, build tso.Build, sched []tso.Decision) (bool, error) {
	sim, err := tso.NewSimulator(cfg, build)
	if err != nil {
		return false, err
	}
	defer sim.Kill()
	for _, d := range sched {
		if _, err := sim.Apply(d); err != nil {
			return false, err
		}
		if sim.ExclusionViolation() != nil {
			return true, nil
		}
	}
	return sim.ExclusionViolation() != nil, nil
}

// Minimize shrinks a violating schedule by delta debugging (tso.Minimize)
// to a 1-minimal one: removing any single remaining decision loses the
// violation. Cancelling ctx aborts the search between candidate replays.
func Minimize(ctx context.Context, cfg tso.Config, build tso.Build, sched []tso.Decision) ([]tso.Decision, error) {
	return tso.Minimize(ctx, sched, func(cand []tso.Decision) (bool, error) {
		return Reproduces(cfg, build, cand)
	})
}
