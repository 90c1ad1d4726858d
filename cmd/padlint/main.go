// Command padlint statically lints vmprog lock programs: control-flow and
// reference checks, the buffered-write dataflow behind stale-read
// detection, and the quantitative abstract interpretation that bounds
// fences and RMRs per passage with machine-checked witness executions.
// It lints the built-in VM programs (every internal/mutex algorithm has a
// VM port in the vmprog registry) or any JSON program file (a single
// program or a set).
//
// Usage:
//
//	padlint -all                    lint every built-in program (CI gate)
//	padlint -alg bakery-vm -n 4     lint one built-in program
//	padlint -file prog.json -n 3    lint a saved program or program set
//	padlint -all -json              machine-readable reports
//	padlint -all -sarif out.sarif   also write a SARIF 2.1.0 report
//	padlint -all -cache .padlint    reuse results for unchanged programs
//	padlint -alg x -write-baseline lint.baseline.json
//	padlint -alg x -baseline lint.baseline.json
//
// With -all the exit status is the lint gate: correct programs must produce
// zero errors and meet the quantitative expectations (entry fence minimum
// >= 1, solo-witness fence count within the per-lock cap), while the
// deliberately broken variants (peterson-nofence and friends) must be
// caught with at least one error naming the violated bound. A baseline
// file suppresses known findings by fingerprint; suppressed findings drop
// out of the gate but stay in the SARIF report marked as suppressed. The
// cache stores per-program results in a jobs artifact store keyed by
// program hash, process count and analyzer version, so re-lints of
// unchanged programs are served from disk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"priceadaptive/internal/analysis"
	"priceadaptive/internal/analysis/absint"
	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/jobs"
	"priceadaptive/internal/vmprog"
)

// analyzerVersion participates in cache identity: bump it whenever either
// analyzer's output for an unchanged program can change, so stale cached
// results are never served for new analyzer code.
const analyzerVersion = "4"

// cacheKind names the cached artifact in the jobs store.
const cacheKind = "padlint-program"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// programReport is the cacheable per-program analysis: both analyzers'
// output, before any expectation or baseline is applied (those depend on
// flags and files, not on the program, so they stay out of the cache).
type programReport struct {
	Report *analysis.Report `json:"report"`
	Quant  *absint.Result   `json:"quant"`
	// Por summarizes the static reduction facts: whether the program is
	// proven symmetric under process permutation, and why not if not.
	// Nil when the reduction analysis itself failed (invalid program).
	Por *por.Summary `json:"por,omitempty"`
}

// lintResult pairs a program's analyses with the gate verdict it was
// held to.
type lintResult struct {
	Report *analysis.Report `json:"report"`
	Quant  *absint.Result   `json:"quant"`
	// ExpectBroken echoes Entry.Broken: the program is required to draw
	// at least one error.
	ExpectBroken bool `json:"expect_broken"`
	// Cached reports that the analyses were served from the -cache store.
	Cached bool `json:"cached,omitempty"`
	// Suppressed counts findings silenced by the -baseline file.
	Suppressed int `json:"suppressed,omitempty"`
	// QuantFailures are quantitative gate expectations the program
	// missed (only populated under -all).
	QuantFailures []string `json:"quant_failures,omitempty"`
	// Pass reports whether the program met its expectation.
	Pass bool `json:"pass"`
	// Por echoes the cached reduction summary for JSON consumers.
	Por *por.Summary `json:"por,omitempty"`
}

// quantExpect pins one program's quantitative -all expectations.
type quantExpect struct {
	// MaxWitnessFences caps the solo witness's per-passage fence count
	// (0 = no cap). The caps are tight: they equal the current witness
	// counts, so any regression that adds a fence to the uncontended
	// path fails the gate.
	MaxWitnessFences int
	// RequireCode names a diagnostic the program must draw (broken
	// variants must be caught with the violated bound named).
	RequireCode string
}

// quantExpects is the -all gate's quantitative expectation table, keyed
// by registry program name. Correct locks additionally must satisfy
// FencesEntry.Min >= 1 (Theorem 1 at contention 2).
var quantExpects = map[string]quantExpect{
	"anderson-vm":    {MaxWitnessFences: 2},
	"bakery-vm":      {MaxWitnessFences: 3},
	"burnslynch-vm":  {MaxWitnessFences: 3},
	"caschain-vm":    {MaxWitnessFences: 2},
	"clh-vm":         {MaxWitnessFences: 3},
	"dekker-vm":      {MaxWitnessFences: 2},
	"filter-vm":      {MaxWitnessFences: 3},
	"lamportfast-vm": {MaxWitnessFences: 4},
	"mcs-vm":         {MaxWitnessFences: 2},
	"peterson-vm":    {MaxWitnessFences: 2},
	"synthetic-vm":   {MaxWitnessFences: 5},
	"tas-vm":         {MaxWitnessFences: 2},
	"tournament-vm":  {MaxWitnessFences: 3},
	"ttas-vm":        {MaxWitnessFences: 2},

	"bakery-weak-vm":       {RequireCode: "stale-read"},
	"dekker-nofence-vm":    {RequireCode: "fence-bound-entry"},
	"peterson-nofence-vm":  {RequireCode: "fence-bound-entry"},
	"synthetic-nofence-vm": {RequireCode: "fence-bound-entry"},
}

// linter carries the run's configuration through the per-program steps.
// The baseline is the shared analysis.Baseline suppression machinery.
type linter struct {
	store    *jobs.Store
	baseline *analysis.Baseline
}

// analyze produces (or fetches) the two analyses for one program.
func (l *linter) analyze(p *vmprog.Program, n int) (programReport, bool, error) {
	var id string
	if l.store != nil {
		hash, err := p.Hash()
		if err != nil {
			return programReport{}, false, err
		}
		params, err := json.Marshal(map[string]any{
			"hash": hash, "n": n, "analyzer": analyzerVersion,
		})
		if err != nil {
			return programReport{}, false, err
		}
		spec := jobs.Spec{Kind: cacheKind, Params: params}
		if id, err = spec.ID(); err != nil {
			return programReport{}, false, err
		}
		if raw, err := l.store.GetResult(id); err == nil {
			var pr programReport
			if err := json.Unmarshal(raw, &pr); err == nil && pr.Report != nil && pr.Quant != nil {
				return pr, true, nil
			}
			// A corrupt artifact falls through to a fresh analysis that
			// overwrites it.
		}
		if err := l.store.PutSpec(id, spec); err != nil {
			return programReport{}, false, err
		}
	}
	r := analysis.Analyze(p, n)
	q, err := absint.Analyze(p, n)
	if err != nil {
		// Internal analyzer failure (witness did not replay): not a
		// program finding, so surface it instead of caching garbage.
		return programReport{}, false, err
	}
	pr := programReport{Report: r, Quant: q}
	if rr, err := por.Analyze(p, n); err == nil {
		pr.Por = rr.Summary()
	}
	if l.store != nil {
		raw, err := json.Marshal(pr)
		if err != nil {
			return programReport{}, false, err
		}
		now := time.Now()
		st := jobs.Status{
			ID: id, Kind: cacheKind, State: jobs.StateDone, Attempts: 1,
			CreatedAt: now, StartedAt: now, FinishedAt: now,
		}
		sum, err := l.store.PutResult(id, raw)
		if err != nil {
			return programReport{}, false, err
		}
		st.ResultSum = sum
		if err := l.store.PutStatus(id, st); err != nil {
			return programReport{}, false, err
		}
	}
	return pr, false, nil
}

// findings flattens both analyses' diagnostics in display order, marking
// the baseline-suppressed ones.
func (l *linter) findings(name string, pr programReport) []analysis.SARIFFinding {
	var out []analysis.SARIFFinding
	for _, d := range append(append([]analysis.Diagnostic(nil), pr.Report.Diags...), pr.Quant.Diags...) {
		f := analysis.SARIFFinding{Program: name, Diag: d}
		f.Suppressed = l.baseline.Suppressed(analysis.Fingerprint(name, d))
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Diag.Sev != out[j].Diag.Sev {
			return out[i].Diag.Sev > out[j].Diag.Sev
		}
		return out[i].Diag.PC < out[j].Diag.PC
	})
	return out
}

// gate evaluates one program against its expectations and returns the
// finished lintResult.
func (l *linter) gate(name string, pr programReport, expectBroken, applyQuant bool) lintResult {
	res := lintResult{Report: pr.Report, Quant: pr.Quant, Por: pr.Por, ExpectBroken: expectBroken}
	fs := l.findings(name, pr)
	errs := 0
	codes := make(map[string]bool)
	for _, f := range fs {
		if f.Suppressed {
			res.Suppressed++
			continue
		}
		codes[f.Diag.Code] = true
		if f.Diag.Sev == analysis.SevError {
			errs++
		}
	}
	if applyQuant {
		exp := quantExpects[name]
		if !expectBroken {
			if pr.Quant.FencesEntry.Min < 1 {
				res.QuantFailures = append(res.QuantFailures, fmt.Sprintf(
					"entry fence interval %s admits a fence-free entry (Theorem 1, contention 2, needs min >= 1)",
					pr.Quant.FencesEntry))
			}
			if exp.MaxWitnessFences > 0 {
				switch w := pr.Quant.Witness; {
				case w == nil:
					res.QuantFailures = append(res.QuantFailures, "no solo witness to check the fence cap against")
				case w.Counts.Fences > exp.MaxWitnessFences:
					res.QuantFailures = append(res.QuantFailures, fmt.Sprintf(
						"solo witness executes %d fences per passage, cap is %d",
						w.Counts.Fences, exp.MaxWitnessFences))
				}
			}
		} else if exp.RequireCode != "" && !codes[exp.RequireCode] {
			res.QuantFailures = append(res.QuantFailures, fmt.Sprintf(
				"broken variant must be flagged with %q naming the violated bound", exp.RequireCode))
		}
	}
	if expectBroken {
		res.Pass = errs > 0
	} else {
		res.Pass = errs == 0
	}
	if len(res.QuantFailures) > 0 {
		res.Pass = false
	}
	return res
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("padlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "lint every built-in program and enforce the registry expectations")
	alg := fs.String("alg", "", fmt.Sprintf("built-in program: %v", vmprog.Names()))
	file := fs.String("file", "", "JSON program file (single program or set) to lint")
	n := fs.Int("n", 3, "process count to instantiate size-parametric programs for")
	jsonOut := fs.Bool("json", false, "emit JSON reports")
	sarifOut := fs.String("sarif", "", "write a SARIF 2.1.0 report to this file")
	baselinePath := fs.String("baseline", "", "suppress findings listed in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "write all current findings to this baseline file and exit 0")
	cacheDir := fs.String("cache", "", "serve unchanged programs from a jobs artifact store at this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	l := &linter{}
	if *baselinePath != "" {
		b, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 2
		}
		l.baseline = b
	}
	if *cacheDir != "" {
		store, err := jobs.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 2
		}
		l.store = store
	}

	// Collect the programs to lint with their instantiation and gate
	// expectations.
	type target struct {
		prog         *vmprog.Program
		n            int
		expectBroken bool
	}
	var targets []target
	switch {
	case *all:
		for _, e := range vmprog.Registry() {
			nn := *n
			if e.FixedN > 0 {
				nn = e.FixedN
			}
			p, err := e.Build(nn)
			if err != nil {
				fmt.Fprintf(stderr, "padlint: %s: %v\n", e.Name, err)
				return 1
			}
			targets = append(targets, target{prog: p, n: nn, expectBroken: e.Broken || e.CrashBroken})
		}
	case *alg != "":
		e, err := vmprog.LookupEntry(*alg)
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 2
		}
		nn := *n
		if e.FixedN > 0 {
			nn = e.FixedN
		}
		p, err := e.Build(nn)
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
		// A direct lint is expectation-free: a broken variant fails it.
		targets = append(targets, target{prog: p, n: nn})
	case *file != "":
		progs, err := vmprog.LoadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
		for _, p := range progs {
			targets = append(targets, target{prog: p, n: *n})
		}
	default:
		fmt.Fprintln(stderr, "padlint: one of -all, -alg, or -file is required")
		fs.Usage()
		return 2
	}

	var results []lintResult
	var allFindings []analysis.SARIFFinding
	// porNotes are informational symmetry verdicts: they ride the SARIF
	// report but stay out of the gate and the baseline.
	var porNotes []analysis.SARIFFinding
	for _, t := range targets {
		pr, cached, err := l.analyze(t.prog, t.n)
		if err != nil {
			fmt.Fprintf(stderr, "padlint: %s: %v\n", t.prog.Name, err)
			return 1
		}
		res := l.gate(t.prog.Name, pr, t.expectBroken, *all)
		res.Cached = cached
		results = append(results, res)
		allFindings = append(allFindings, l.findings(t.prog.Name, pr)...)
		if pr.Por != nil {
			d := analysis.Diagnostic{Sev: analysis.SevNote, Code: "por-symmetry"}
			if pr.Por.Symmetric {
				d.Msg = "proven invariant under process permutation; symmetry canonicalization applies"
			} else {
				d.Msg = "symmetry reduction unavailable: " + pr.Por.SymmetryNote
			}
			porNotes = append(porNotes, analysis.SARIFFinding{Program: t.prog.Name, Diag: d})
		}
	}

	if *writeBaseline != "" {
		b := analysis.NewBaseline()
		for _, f := range allFindings {
			b.Suppress[analysis.Fingerprint(f.Program, f.Diag)] = fmt.Sprintf("%s: %s", f.Program, f.Diag)
		}
		if err := b.WriteFile(*writeBaseline); err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
		fmt.Fprintf(stdout, "padlint: wrote %d finding(s) to %s\n", len(b.Suppress), *writeBaseline)
		return 0
	}

	if *sarifOut != "" {
		data, err := analysis.SARIF(analyzerVersion, append(allFindings, porNotes...))
		if err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
		if err := os.WriteFile(*sarifOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, "padlint:", err)
			return 1
		}
	} else {
		render(stdout, results, l)
	}
	for _, res := range results {
		if !res.Pass {
			return 1
		}
	}
	return 0
}

// ser renders a serializing-event count (-1 is unbounded: a cycle with a
// fence or CAS on it).
func ser(v int) string {
	if v < 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", v)
}

func render(w io.Writer, results []lintResult, l *linter) {
	clean, caught, failed := 0, 0, 0
	for _, res := range results {
		r := res.Report
		q := res.Quant
		tag := ""
		if res.ExpectBroken {
			tag = " [expected-broken]"
		}
		if res.Cached {
			tag += " (cached)"
		}
		fmt.Fprintf(w, "== %s (n=%d, class %s)%s\n", r.Name, r.N, r.Class, tag)
		fmt.Fprintf(w, "   blocks %d, entry serializing [%s,%s], exit [%s,%s], serializing dominates CS: %v\n",
			r.Blocks, ser(r.MinEntrySer), ser(r.MaxEntrySer), ser(r.MinExitSer), ser(r.MaxExitSer), r.SerDominatesCS)
		fmt.Fprintf(w, "   fences entry %s exit %s passage %s; rmr dsm %s ccwt %s ccwb %s\n",
			q.FencesEntry, q.FencesExit, q.FencesPassage,
			q.RMRPassage.DSM, q.RMRPassage.CCWT, q.RMRPassage.CCWB)
		if wit := q.Witness; wit != nil {
			fmt.Fprintf(w, "   witness: solo passage, %d fences (%d entry), rmr %d/%d/%d, replayed ok\n",
				wit.Counts.Fences, wit.EntryFences,
				wit.Counts.RMR[0], wit.Counts.RMR[1], wit.Counts.RMR[2])
		}
		if p := res.Por; p != nil {
			if p.Symmetric {
				fmt.Fprintf(w, "   reduction: symmetric under process permutation (facts v%d)\n", p.FactsVersion)
			} else {
				fmt.Fprintf(w, "   reduction: symmetry unavailable: %s\n", p.SymmetryNote)
			}
		}
		errs, warns := 0, 0
		for _, f := range l.findings(r.Name, programReport{Report: r, Quant: q}) {
			if f.Suppressed {
				continue
			}
			if f.Diag.Sev == analysis.SevError {
				errs++
			} else {
				warns++
			}
			fmt.Fprintf(w, "   %s\n", f.Diag)
		}
		if res.Suppressed > 0 {
			fmt.Fprintf(w, "   suppressed: %d baselined finding(s)\n", res.Suppressed)
		}
		for _, qf := range res.QuantFailures {
			fmt.Fprintf(w, "   FAIL[quant]: %s\n", qf)
		}
		switch {
		case !res.Pass && res.ExpectBroken && len(res.QuantFailures) == 0:
			failed++
			fmt.Fprintf(w, "   FAIL: broken variant not flagged\n")
		case !res.Pass:
			failed++
			fmt.Fprintf(w, "   FAIL: %d error(s)\n", errs)
		case res.ExpectBroken:
			caught++
			fmt.Fprintf(w, "   ok: broken variant caught (%d error(s))\n", errs)
		default:
			clean++
			if warns == 0 {
				fmt.Fprintf(w, "   ok\n")
			} else {
				fmt.Fprintf(w, "   ok (%d warning(s))\n", warns)
			}
		}
	}
	fmt.Fprintf(w, "summary: %d programs, %d clean, %d expected-broken caught, %d failed\n",
		len(results), clean, caught, failed)
}
