package main

import (
	"context"
	"runtime/metrics"
	"syscall"
	"time"
)

// callReport is what a child process reports about its one timed call.
type callReport struct {
	Outcome outcome `json:"outcome"`
	// Err is the error that stopped the call or the traced measurements.
	Err string `json:"err,omitempty"`
	// ResultS is the wall-clock time of the call and CPUS the user plus
	// system CPU time the process spent over the same interval.
	ResultS float64 `json:"result_s"`
	CPUS    float64 `json:"cpu_s"`
	// RSSBeforeKB and PeakRSSKB are the process's peak resident set before
	// and after the call, in KiB.
	RSSBeforeKB int64 `json:"rss_before_kb"`
	PeakRSSKB   int64 `json:"peak_rss_kb"`
	// SetupS is the wall-clock time of the set-up before the call, the
	// first in the process: it includes every cost a fresh process pays,
	// as each run of a checker does.
	SetupS float64 `json:"setup_s"`

	// A traced call also reports the Go runtime's counters over the call,
	// the per-layer costs measured after it, and its spans.
	Go     *goDelta           `json:"go,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// goDelta is the change of the Go runtime's counters over a call.
type goDelta struct {
	AllocBytes float64 `json:"alloc_bytes"`
	Allocs     float64 `json:"allocs"`
	GCCycles   float64 `json:"gc_cycles"`
	// GCCPUShare is the share of the busy CPU time that went to the
	// garbage collector. The runtime snapshots its CPU classes at the end of
	// each GC cycle, so the share covers the cycles that ended in the call.
	GCCPUShare float64 `json:"gc_cpu_share"`
}

// goCounters names the runtime/metrics samples read around a traced call.
var goCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readGo reads goCounters, in order, as float64s.
func readGo() []float64 {
	samples := make([]metrics.Sample, len(goCounters))
	for i, name := range goCounters {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// goBetween turns two readGo readings into a goDelta.
func goBetween(before, after []float64) *goDelta {
	d := make([]float64, len(before))
	for i := range d {
		d[i] = after[i] - before[i]
	}
	g := &goDelta{AllocBytes: d[0], Allocs: d[1] + d[2], GCCycles: d[3]}
	if busy := d[5] - d[6]; busy > 0 {
		g.GCCPUShare = d[4] / busy
	}
	return g
}

// usage returns the process's user plus system CPU time and its peak
// resident set size in KiB.
func usage() (time.Duration, int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss, nil
}

// childArgs selects what a child process does.
type childArgs struct {
	// workers is the worker count of the call (0: the sequential engine).
	workers int
	// traced records spans and measures the per-layer costs after the call.
	traced bool
	// setupOnly stops the child after its set-up, without a call.
	setupOnly bool
	// seed draws the traced call's state sample.
	seed int64
}

// runCall is the body of a child process: the timed set-up, then one timed
// call and, when traced, the runtime counters around the call, spans and the
// per-layer costs measured after it. The process runs nothing else, so its
// peak resident set is the workload's.
func runCall(ctx context.Context, w *workload, a childArgs) callReport {
	var rec *recorder
	if a.traced {
		rec = &recorder{}
	}
	var rep callReport
	fail := func(err error) callReport {
		rep.Err = err.Error()
		if rec != nil {
			rep.Spans = rec.spans
		}
		return rep
	}
	root := rec.begin(0, "bench.call")
	setupID := rec.begin(root, "bench.setup")
	s0 := time.Now()
	p, err := w.setup(rec, setupID)
	rep.SetupS = time.Since(s0).Seconds()
	rec.end(setupID, nil)
	if err != nil {
		return fail(err)
	}
	if a.setupOnly {
		return rep
	}

	var goBefore []float64
	if a.traced {
		goBefore = readGo()
	}
	cpu0, before, err := usage()
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	out, err := w.call(ctx, p, a.workers)
	t1 := time.Now()
	if err != nil {
		return fail(err)
	}
	cpu1, peak, err := usage()
	if err != nil {
		return fail(err)
	}
	rep.RSSBeforeKB, rep.PeakRSSKB = before, peak
	rep.Outcome = out
	rep.ResultS = t1.Sub(t0).Seconds()
	rep.CPUS = (cpu1 - cpu0).Seconds()
	if !a.traced {
		return rep
	}

	rep.Go = goBetween(goBefore, readGo())
	c := out.Counts
	rec.add(root, w.entry, t0, t1, map[string]float64{
		"states": float64(c.States), "transitions": float64(c.Transitions), "ample_steps": float64(c.AmpleSteps),
		"events": float64(c.Events), "phases": float64(c.Phases), "erased": float64(c.Erased),
	})
	layersID := rec.begin(root, "bench.layers")
	if w.program == "" {
		rep.Layers, err = victimCosts(rec, layersID, p)
	} else {
		rep.Layers, err = engineCosts(rec, layersID, w, p, a.seed)
	}
	rec.end(layersID, nil)
	rec.end(root, nil)
	if err != nil {
		return fail(err)
	}
	rep.Spans = rec.spans
	return rep
}
