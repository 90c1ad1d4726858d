package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A span is one call into a layer, timed by the benchmark around the call.
// Its layer is the part of Name before the first dot: check, por, vmprog,
// tso, adversary, or bench for the benchmark's own work.
type span struct {
	ID int `json:"id"`
	// Parent is the ID of the span that made the call; 0 for a root.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are Unix times in nanoseconds, so spans recorded by
	// different processes of one run share a time axis.
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
	// SelfNS is filled in when the trace is written out (see selfTimes).
	SelfNS int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs share the traced code paths.
type recorder struct {
	spans []span
}

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(r.spans)
}

// end closes span id and attaches the counts measured at its boundary.
func (r *recorder) end(id int, c map[string]float64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.End = time.Now().UnixNano()
	s.Counts = c
}

// add records a span whose interval the caller timed itself.
func (r *recorder) add(parent int, name string, start, end time.Time, c map[string]float64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Counts: c})
}

// do records a span around f.
func (r *recorder) do(parent int, name string, f func() error) error {
	if r == nil {
		return f()
	}
	id := r.begin(parent, name)
	err := f()
	r.end(id, nil)
	return err
}

// adopt appends spans recorded by a child process under parent, renumbering
// their IDs past the recorder's own.
func (r *recorder) adopt(parent int, spans []span) {
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes sets each span's SelfNS: its duration minus the part of its
// interval that its direct children cover. Children that overlap, as
// parallel calls do, cover their union once; a child reaching outside its
// parent covers only the part inside.
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNS = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	end := lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// layerSelf sums the self times of spans by layer. selfTimes must have run.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.SelfNS
	}
	return out
}

// traceFile is the written-out trace of one traced run.
type traceFile struct {
	Host        host             `json:"host"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	Spans       []span           `json:"spans"`
}

// writeTrace computes self times and writes the trace as JSON to
// dir/<workload>-seed<seed>.json, returning the file's path.
func writeTrace(dir string, t traceFile) (string, error) {
	selfTimes(t.Spans)
	t.LayerSelfNS = layerSelf(t.Spans)
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.Workload, t.Seed))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
