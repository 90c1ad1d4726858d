// Command perfbench is the repository's benchmark: it times one call into a
// public entry point per workload (check.Verify, check.VerifyRecoverable or
// adversary.Run), checks every result against the workload's known answer,
// and prints the metrics BENCHMARK.json lists. Build and run it with
//
//	bash .perfbench/run.sh --workload explore-asym --seed 1 --seconds 25 --trace 0
//
// from the checkout root.
//
// An untraced run (--trace 0) prints the end-to-end metrics. It makes each
// timed call in a fresh child process, so that every peak resident set is
// that of a process that ran nothing but the workload, and reports the
// medians over the run of result_s and cpu_s and the smallest peak_rss_mb:
// a small heap's peak depends on where the GC cycles fall (on a 2-CPU Xeon
// host, explore-sym's calls peak anywhere from 9.5 to 19 MB), and the
// smallest is the memory the workload needs. setup_s is the lower quartile
// of the set-ups timed in the run's children, each the first in its fresh
// process, as a checker run pays it: a set-up repeated inside one process
// would hide work that a cache across calls saves there but no real run
// saves. Interference only ever slows a set-up of a few hundred
// microseconds down, so the fast quarter of them is the steadiest measure
// of its cost.
//
// A traced run (--trace 1) prints the per-layer metrics. It records a span
// around each call into a layer, times the engine operations on a sample,
// drawn with --seed, of the states a breadth-first search discovers (for
// construct, the victim on the TSO simulator instead), and writes the spans
// with their self times to .bench_build/traces.
//
// The last line of standard output is the result as one JSON object.
//
// The benchmark is a module of its own, so the repository's go build ./...
// and go test ./... leave it out, and it lives in a hidden directory, which
// padvet's repository walk skips: the package count that walk reports is
// pinned in BENCH_analysis.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// A metric is one number the benchmark prints, with BENCHMARK.json's unit
// and direction.
type metric struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run.
var endToEnd = []metric{
	{"result_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// call reports 0: por and vmprog on construct, adversary and tso on the
// check workloads.
var perLayer = []metric{
	{"por.facts_s", "s", "lower"},
	{"por.ample_steps", "count", "higher"},
	{"vmprog.states", "count", "lower"},
	{"vmprog.transitions", "count", "lower"},
	{"vmprog.hash_ns", "ns", "lower"},
	{"vmprog.clone_ns", "ns", "lower"},
	{"vmprog.clone_allocs", "allocs", "lower"},
	{"vmprog.apply_ns", "ns", "lower"},
	{"vmprog.decisions_ns", "ns", "lower"},
	{"vmprog.canon_ns", "ns", "lower"},
	{"vmprog.canon_allocs", "allocs", "lower"},
	{"vmprog.ns_per_transition", "ns", "lower"},
	{"vmprog.frontier_ns_per_transition", "ns", "lower"},
	{"vmprog.rss_bytes_per_state", "B", "lower"},
	{"vmprog.speedup_2w", "x", "higher"},
	{"check.seq_over_frontier", "x", "higher"},
	{"go.alloc_bytes_per_transition", "B", "lower"},
	{"go.allocs_per_transition", "allocs", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"adversary.events", "count", "lower"},
	{"adversary.phases", "count", "lower"},
	{"adversary.erased", "count", "lower"},
	{"adversary.ns_per_event", "ns", "lower"},
	{"tso.step_ns", "ns", "lower"},
	{"tso.replay_ns_per_event", "ns", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

const (
	// minCalls is the fewest timed calls an untraced run makes, however
	// short --seconds is.
	minCalls = 3
	// setupProcsPerCall set-up-only children follow every timed call, after
	// a pause of settle that keeps them clear of the call's exit.
	setupProcsPerCall = 16
	settle            = 50 * time.Millisecond
	// childTimeout bounds one child process, well inside the 180 seconds a
	// run may take.
	childTimeout = 120 * time.Second
	// traceDir receives the traced runs' span files.
	traceDir = ".bench_build/traces"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 1, "seed of the traced run's state sample")
		seconds   = flag.Float64("seconds", 25, "how long an untraced run measures")
		trace     = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
		child     = flag.Bool("child", false, "make one measured call and print its report (used by the benchmark itself)")
		workers   = flag.Int("workers", 0, "with -child: worker count of the call (0: sequential engine)")
		traced    = flag.Bool("traced", false, "with -child: trace the call")
		setupOnly = flag.Bool("setup-only", false, "with -child: stop after the timed set-up")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *child {
		rep := runCall(ctx, w, childArgs{workers: *workers, traced: *traced, setupOnly: *setupOnly, seed: *seed})
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	h := hostInfo(".")
	hj, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", hj)
	var res result
	switch *trace {
	case 0:
		res, err = runEndToEnd(ctx, w, time.Duration(*seconds*float64(time.Second)))
	case 1:
		res, err = runTraced(ctx, w, *seed, h)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// spawn runs one child process and returns its report. A report with Err
// set is returned together with that error.
func spawn(ctx context.Context, w *workload, a childArgs) (callReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return callReport{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-workers", strconv.Itoa(a.workers), "-traced="+strconv.FormatBool(a.traced),
		"-setup-only="+strconv.FormatBool(a.setupOnly), "-seed", strconv.FormatInt(a.seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return callReport{}, fmt.Errorf("%s child with %d workers: %w", w.name, a.workers, err)
	}
	var rep callReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return callReport{}, fmt.Errorf("%s call report: %w", w.name, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("%s child with %d workers: %s", w.name, a.workers, rep.Err)
	}
	return rep, nil
}

// tally counts a workload's attempted and failed calls; a call fails when
// it errs or returns something other than the known answer.
type tally struct {
	w                 *workload
	attempted, failed int
}

func (t *tally) note(rep callReport, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %v\n", t.w.name, err)
	case !rep.Outcome.OK:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answer: %s\n", t.w.name, rep.Outcome.Answer)
	}
}

// result prints the tally and builds the result line from values, which
// must hold every metric of ms.
func (t *tally) result(values map[string]float64, ms []metric) (result, error) {
	fmt.Printf("%s: %d calls attempted, %d failed\n", t.w.name, t.attempted, t.failed)
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metricValue)}
	for _, m := range ms {
		v, ok := values[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// runEndToEnd makes timed calls, each in a fresh child process, until the
// next one would end after budget, and reports the medians over the calls
// and the smallest peak resident set. After each call, once the host has
// settled, setupProcsPerCall more children time a set-up alone; setup_s is
// the lower quartile of all the run's set-ups, each the first in its
// process.
func runEndToEnd(ctx context.Context, w *workload, budget time.Duration) (result, error) {
	t := tally{w: w}
	var resultS, cpuS, rssMB, setupS []float64
	start := time.Now()
	for iter := 1; ; iter++ {
		rep, err := spawn(ctx, w, childArgs{workers: w.workers})
		t.note(rep, err)
		if err != nil && ctx.Err() != nil {
			return result{}, ctx.Err()
		}
		if err == nil {
			resultS = append(resultS, rep.ResultS)
			cpuS = append(cpuS, rep.CPUS)
			rssMB = append(rssMB, float64(rep.PeakRSSKB)/1024)
			setupS = append(setupS, rep.SetupS)
		}
		time.Sleep(settle)
		for i := 0; i < setupProcsPerCall; i++ {
			rep, err := spawn(ctx, w, childArgs{setupOnly: true})
			if err != nil {
				return result{}, err
			}
			setupS = append(setupS, rep.SetupS)
		}
		elapsed := time.Since(start)
		if iter >= minCalls && elapsed+elapsed/time.Duration(iter) > budget {
			break
		}
	}
	if len(resultS) == 0 {
		return result{}, errors.New("no call returned a result")
	}
	fmt.Printf("%s: %d calls, result_s %s, cpu_s %s, peak_rss_mb %s; %d set-ups, setup_s %s\n",
		w.name, len(resultS), spread(resultS), spread(cpuS), spread(rssMB), len(setupS), spread(setupS))
	return t.result(map[string]float64{
		"result_s":    median(resultS),
		"cpu_s":       median(cpuS),
		"peak_rss_mb": slices.Min(rssMB),
		"setup_s":     lowerQuartile(setupS),
	}, endToEnd)
}

// runTraced makes the traced call and the untraced calls the per-layer
// ratios compare it with, each in its own child process: the same call
// untraced, before and after the traced one so that a drift of the host's
// speed cancels out of trace.overhead, and for a check workload the call at
// the other worker count (vmprog.speedup_2w) and on the sequential engine
// (check.seq_over_frontier). It writes the merged spans out and reports the
// per-layer metrics.
func runTraced(ctx context.Context, w *workload, seed int64, h host) (result, error) {
	rec := &recorder{}
	t := tally{w: w}
	root := rec.begin(0, "bench.traced")
	run := func(name string, workers int, traced bool) (callReport, error) {
		id := rec.begin(root, name)
		rep, err := spawn(ctx, w, childArgs{workers: workers, traced: traced, seed: seed})
		rec.end(id, map[string]float64{"workers": float64(workers)})
		rec.adopt(id, rep.Spans)
		t.note(rep, err)
		return rep, err
	}
	before, err := run("bench.child.untraced", w.workers, false)
	if err != nil {
		return result{}, err
	}
	tr, err := run("bench.child.traced", w.workers, true)
	if err != nil {
		return result{}, err
	}
	after, err := run("bench.child.untraced", w.workers, false)
	if err != nil {
		return result{}, err
	}
	refS := (before.ResultS + after.ResultS) / 2
	m := make(map[string]float64)
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	for k, v := range tr.Layers {
		m[k] = v
	}
	c := tr.Outcome.Counts
	callNS := tr.ResultS * 1e9
	m["trace.overhead"] = tr.ResultS/refS - 1
	m["go.gc_cycles"] = tr.Go.GCCycles
	m["go.gc_cpu_share"] = tr.Go.GCCPUShare

	if w.program == "" {
		m["adversary.events"] = float64(c.Events)
		m["adversary.phases"] = float64(c.Phases)
		m["adversary.erased"] = float64(c.Erased)
		m["adversary.ns_per_event"] = callNS / float64(c.Events)
		m["go.alloc_bytes_per_transition"] = tr.Go.AllocBytes / float64(c.Events)
		m["go.allocs_per_transition"] = tr.Go.Allocs / float64(c.Events)
	} else {
		other := 1
		if w.workers == 1 {
			other = 2
		}
		alt, err := run("bench.child.workers", other, false)
		if err != nil {
			return result{}, err
		}
		seq, err := run("bench.child.sequential", 0, false)
		if err != nil {
			return result{}, err
		}
		oneS, twoS := refS, alt.ResultS
		if w.workers == 2 {
			oneS, twoS = alt.ResultS, refS
		}
		m["vmprog.speedup_2w"] = oneS / twoS
		m["check.seq_over_frontier"] = seq.ResultS / oneS

		states, trans := float64(c.States), float64(c.Transitions)
		m["vmprog.states"] = states
		m["vmprog.transitions"] = trans
		m["por.ample_steps"] = float64(c.AmpleSteps)
		m["vmprog.ns_per_transition"] = callNS / trans
		// The sampled costs are single-core; the call's time per transition
		// counts once per worker, so that on two workers the barrier waits
		// fall into the remainder too. A remainder below zero means the
		// sample does not price the search's transitions; it is reported as
		// unresolved, with the value 0.
		perTrans := float64(w.workers) * callNS / trans
		sampled := m["vmprog.clone_ns"] + m["vmprog.apply_ns"] + m["vmprog.canon_ns"] + m["vmprog.hash_ns"] +
			m["vmprog.decisions_ns"]*states/trans
		if perTrans > sampled {
			m["vmprog.frontier_ns_per_transition"] = perTrans - sampled
		} else {
			fmt.Printf("%s: vmprog.frontier_ns_per_transition unresolved: sampled costs %.0f ns exceed %.0f ns per transition\n",
				w.name, sampled, perTrans)
		}
		m["vmprog.rss_bytes_per_state"] = float64(tr.PeakRSSKB-tr.RSSBeforeKB) * 1024 / states
		m["go.alloc_bytes_per_transition"] = tr.Go.AllocBytes / trans
		m["go.allocs_per_transition"] = tr.Go.Allocs / trans
	}
	rec.end(root, nil)

	fmt.Printf("%s counts: %+v; table: %+v\n", w.name, c, w.table)
	path, err := writeTrace(traceDir, traceFile{Host: h, Workload: w.name, Seed: seed, Spans: rec.spans})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("trace %s; self time by layer (ns): %v\n", path, layerSelf(rec.spans))
	return t.result(m, perLayer)
}

// median returns the median of xs, which must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerQuartile returns the lower quartile of xs, which must not be empty,
// by the exclusive method of Python's statistics.quantiles.
func lowerQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(len(s)+1) / 4
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// spread renders the median and range of xs.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(s), s[0], s[len(s)-1])
}
