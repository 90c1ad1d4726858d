// Package padvet is a repo-wide concurrency-invariant vet suite over the
// project's own Go source: where padlint lints the modelled lock programs,
// padvet lints the system that runs them — the dispatcher's lease tables,
// the queue's breaker state, the metrics registries. It is built on the
// standard library only (go/ast, go/parser, go/types; no analysis
// framework) and ships five analyzers encoding invariants the codebase
// otherwise relies on by convention:
//
//   - lockguard: struct fields annotated "// guarded by <mu>" (or
//     "// guarded by <Type>.<mu>" for record structs owned by another
//     type's lock) may only be accessed in functions that hold that mutex
//     on every control-flow path to the access. Checked with a
//     per-function CFG and a must-held lock-state dataflow.
//   - clockdiscipline: time.Sleep/After/Tick/NewTimer/NewTicker/Now in
//     library code must go through the injectable fault.Clock (supersedes
//     and absorbs the old nosleep pass).
//   - ctxflow: context.Context is the first parameter, never a struct
//     field, and context.Background() appears only in package main.
//   - errcode: every error-envelope code written by the HTTP layers comes
//     from a declared Code* constant registry, and switches over envelope
//     codes are exhaustive (or carry a default).
//   - metricname: every pad_* metric is registered at exactly one call
//     site, with Prometheus-conventional names, suffixes and labels.
//
// A deliberate exception carries "padvet:allow <rule> <reason>" at the end
// of the offending line or on a full comment line immediately above it.
// The legacy "nosleep:allow <reason>" annotation is still honored for the
// three rules inherited from the nosleep pass. A function entered with a
// lock already held is annotated "padvet:holds <recv>.<mu>" (functions
// whose name ends in "Locked" assume their receiver's guard mutexes).
package padvet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation in the repository's own source.
type Finding struct {
	// File is the path as configured (slash-separated, relative to the
	// walk root when Run walks a tree).
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// AllowMarker suppresses a finding when followed by "<rule> <reason>".
const AllowMarker = "padvet:allow"

// legacyAllowMarker is the nosleep-era annotation, honored (reason only,
// no rule name) for the rules that pass enforced.
const legacyAllowMarker = "nosleep:allow"

// legacyRules are the rules the nosleep:allow grammar may suppress.
var legacyRules = map[string]bool{
	"time-sleep":         true,
	"time-timer":         true,
	"context-background": true,
}

// HoldsMarker on a function's doc comment declares a lock the function is
// always entered with: "padvet:holds <recv>.<mu>".
const HoldsMarker = "padvet:holds"

// Rule describes one diagnostic a padvet analyzer can emit.
type Rule struct {
	ID string
	// Doc is the one-line description used for SARIF rule metadata.
	Doc string
}

// analyzer is the internal interface every padvet pass implements. The
// driver runs collect over every file first (cross-package facts), then
// check per file, then finish once for run-wide findings.
type analyzer interface {
	name() string
	rules() []Rule
	// needsTypes reports whether check requires type information; packages
	// that fail to type-check skip such analyzers (with a loader warning).
	needsTypes() bool
	collect(fp *filePass, st *runState)
	check(fp *filePass, st *runState) []Finding
	finish(st *runState) []Finding
}

// analyzers returns the full suite, in stable order.
func analyzers() []analyzer {
	return []analyzer{
		&lockguard{},
		&clockdiscipline{},
		&ctxflow{},
		&errcode{},
		&metricname{},
	}
}

// Rules lists every rule the suite can emit, in stable order.
func Rules() []Rule {
	var out []Rule
	for _, a := range analyzers() {
		out = append(out, a.rules()...)
	}
	return out
}

// AnalyzerVersion participates in cache identity: bump it whenever any
// analyzer's output for unchanged source can change, so stale cached
// package results are never served for new analyzer code.
const AnalyzerVersion = "1"

// Cache stores per-package results across runs. cmd/padvet and the jobs
// runner back it with a jobs artifact store; padvet itself stays free of
// that dependency so internal/jobs can depend on padvet (the padvet job
// kind) without an import cycle.
type Cache interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// Config configures one Run.
type Config struct {
	// Root is the module root to lint (the directory holding go.mod).
	Root string
	// Rules restricts the suite to these rule IDs (empty = all).
	Rules []string
	// Cache, when non-nil, serves unchanged packages from prior runs.
	Cache Cache
	// Stderr receives loader warnings (nil discards them).
	Stderr io.Writer
}

// Result is the outcome of one Run.
type Result struct {
	// Findings are the surviving violations, sorted by position.
	Findings []Finding `json:"findings"`
	// Allowed lists findings suppressed by padvet:allow / nosleep:allow
	// annotations, so exceptions stay auditable in -v listings.
	Allowed []Finding `json:"allowed,omitempty"`
	// Packages and Files count what was analyzed.
	Packages int `json:"packages"`
	Files    int `json:"files"`
	// CacheHits / CacheMisses count per-package cache outcomes.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// TypeErrors lists packages that failed type-checking and therefore
	// skipped the type-dependent analyzers.
	TypeErrors []string `json:"type_errors,omitempty"`
}

// runState is the shared cross-package fact store: collect phases write,
// check and finish phases read.
type runState struct {
	rules map[string]bool // enabled rule IDs

	// errcodes maps declared Code* constant names to their string values
	// (the error-envelope registry).
	errcodes map[string]string
	// metricSites maps metric name -> registration sites ("file:line").
	metricSites map[string][]metricSite
}

func (st *runState) enabled(rule string) bool {
	if len(st.rules) == 0 {
		return true
	}
	return st.rules[rule]
}

// allowEntry records one suppression annotation.
type allowEntry struct {
	rule   string // "" for legacy nosleep:allow (covers legacyRules)
	reason string
}

// filePass is one file's context, shared by every analyzer.
type filePass struct {
	fset   *token.FileSet
	file   *ast.File
	path   string // display path, slash-separated
	src    []byte
	pkg    *Package // nil in single-file mode
	isMain bool
	// allowed maps line -> suppression annotations covering that line.
	allowed map[int][]allowEntry
}

// importName returns the local name importPath is bound to in this file
// ("" if not imported). Aliased imports resolve to the alias.
func (fp *filePass) importName(importPath string) string {
	for _, imp := range fp.file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return importPath[strings.LastIndex(importPath, "/")+1:]
	}
	return ""
}

// isPkgCall reports whether call is pkgName.sel(...) where pkgName is the
// file-local name of an imported package (not a shadowing declaration).
func isPkgCall(call *ast.CallExpr, pkgName, sel string) bool {
	if pkgName == "" {
		return false
	}
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	// A non-nil Obj means the identifier resolves to a local declaration
	// shadowing the import, not the package.
	return ok && id.Name == pkgName && id.Obj == nil
}

// line returns the 1-based line of pos.
func (fp *filePass) line(pos token.Pos) int { return fp.fset.Position(pos).Line }

// suppressed reports whether a finding of rule at line is annotated away,
// and the matching annotation's reason.
func (fp *filePass) suppressed(rule string, line int) (string, bool) {
	for _, a := range fp.allowed[line] {
		switch {
		case a.rule == "" && legacyRules[rule]:
			return a.reason, true
		case a.rule == rule:
			return a.reason, true
		}
	}
	return "", false
}

// parseAllows scans the file's comments for padvet:allow and nosleep:allow
// annotations. An end-of-line annotation covers its own line; an
// annotation on a full comment line covers the next line, so
// multi-argument calls can keep the reason above the call. A marker
// without a reason (or without a rule, for padvet:allow) does not count:
// the finding survives and stays visible.
func parseAllows(fset *token.FileSet, f *ast.File, src []byte) map[int][]allowEntry {
	lines := strings.Split(string(src), "\n")
	allowed := make(map[int][]allowEntry)
	add := func(c *ast.Comment, e allowEntry) {
		line := fset.Position(c.Pos()).Line
		if line-1 < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[line-1]), "//") {
			// Full comment line: the annotation shields what follows.
			allowed[line+1] = append(allowed[line+1], e)
		} else {
			allowed[line] = append(allowed[line], e)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if idx := strings.Index(c.Text, AllowMarker); idx >= 0 {
				rest := strings.TrimSpace(c.Text[idx+len(AllowMarker):])
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if rule == "" || reason == "" {
					continue // rule and reason are both mandatory
				}
				add(c, allowEntry{rule: rule, reason: reason})
				continue
			}
			if idx := strings.Index(c.Text, legacyAllowMarker); idx >= 0 {
				reason := strings.TrimSpace(c.Text[idx+len(legacyAllowMarker):])
				if reason == "" {
					continue
				}
				add(c, allowEntry{reason: reason})
			}
		}
	}
	return allowed
}

// newRunState builds the shared state for one run.
func newRunState(ruleIDs []string) *runState {
	st := &runState{
		errcodes:    make(map[string]string),
		metricSites: make(map[string][]metricSite),
	}
	if len(ruleIDs) > 0 {
		st.rules = make(map[string]bool, len(ruleIDs))
		for _, r := range ruleIDs {
			st.rules[r] = true
		}
	}
	return st
}

// cachedPackage is the per-package artifact stored in the Cache.
type cachedPackage struct {
	Findings []Finding `json:"findings"`
	Allowed  []Finding `json:"allowed,omitempty"`
	TypeErr  string    `json:"type_err,omitempty"`
}

// cacheKey computes a package's cache identity: the file-set hash (names
// and contents), the analyzer version, the enabled rule set, and a hash of
// the cross-package facts that feed per-package checks (the error-code
// registry), so a code added in one package invalidates dependents.
func cacheKey(p *Package, ruleIDs []string, st *runState) string {
	h := sha256.New()
	fmt.Fprintf(h, "padvet/v%s\x00", AnalyzerVersion)
	for _, name := range p.FileNames {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(p.Src[name]))
		h.Write(p.Src[name])
	}
	sorted := append([]string(nil), ruleIDs...)
	sort.Strings(sorted)
	fmt.Fprintf(h, "rules:%s\x00", strings.Join(sorted, ","))
	var codes []string
	for name, val := range st.errcodes {
		codes = append(codes, name+"="+val)
	}
	sort.Strings(codes)
	fmt.Fprintf(h, "errcodes:%s\x00", strings.Join(codes, ","))
	return p.Path + "@" + hex.EncodeToString(h.Sum(nil)[:16])
}

// Run lints the module rooted at cfg.Root with the full suite (or the
// configured rule subset) and returns all findings, sorted by position.
func Run(cfg Config) (*Result, error) {
	ld, err := newLoader(cfg.Root, cfg.Stderr)
	if err != nil {
		return nil, err
	}
	pkgs, err := ld.parseAll()
	if err != nil {
		return nil, err
	}

	st := newRunState(cfg.Rules)
	suite := analyzers()

	// Phase 1: per-file syntactic fact collection across every package
	// (cheap: parse only). Cross-package facts must be complete before any
	// per-package check runs, cached or not.
	passes := make(map[string][]*filePass, len(pkgs))
	res := &Result{}
	for _, p := range pkgs {
		res.Packages++
		for _, name := range p.FileNames {
			fp := &filePass{
				fset:    ld.fset,
				file:    p.Files[name],
				path:    name,
				src:     p.Src[name],
				pkg:     p,
				isMain:  p.Name == "main",
				allowed: parseAllows(ld.fset, p.Files[name], p.Src[name]),
			}
			passes[p.Path] = append(passes[p.Path], fp)
			res.Files++
			for _, a := range suite {
				a.collect(fp, st)
			}
		}
	}

	// Phase 2: per-package checks, served from the cache when the file-set
	// hash, analyzer version, rule set and fact hash all match.
	for _, p := range pkgs {
		key := cacheKey(p, cfg.Rules, st)
		if cfg.Cache != nil {
			if raw, ok := cfg.Cache.Get(key); ok {
				var cp cachedPackage
				if err := json.Unmarshal(raw, &cp); err == nil {
					res.CacheHits++
					res.Findings = append(res.Findings, cp.Findings...)
					res.Allowed = append(res.Allowed, cp.Allowed...)
					if cp.TypeErr != "" {
						res.TypeErrors = append(res.TypeErrors, cp.TypeErr)
					}
					continue
				}
				// A corrupt artifact falls through to a fresh check that
				// overwrites it.
			}
			res.CacheMisses++
		}
		cp := checkPackage(ld, p, passes[p.Path], suite, st)
		res.Findings = append(res.Findings, cp.Findings...)
		res.Allowed = append(res.Allowed, cp.Allowed...)
		if cp.TypeErr != "" {
			res.TypeErrors = append(res.TypeErrors, cp.TypeErr)
		}
		if cfg.Cache != nil {
			if raw, err := json.Marshal(cp); err == nil {
				cfg.Cache.Put(key, raw)
			}
		}
	}

	// Phase 3: run-wide findings (duplicate metric registrations). These
	// depend on every package at once, so they are never cached.
	for _, a := range suite {
		for _, f := range a.finish(st) {
			// finish findings are attributed to real file positions, so
			// annotations on those lines still apply.
			if fp := findPass(passes, f.File); fp != nil {
				if reason, ok := fp.suppressed(f.Rule, f.Line); ok {
					_ = reason
					res.Allowed = append(res.Allowed, f)
					continue
				}
			}
			res.Findings = append(res.Findings, f)
		}
	}

	sortFindings(res.Findings)
	sortFindings(res.Allowed)
	sort.Strings(res.TypeErrors)
	return res, nil
}

func findPass(passes map[string][]*filePass, path string) *filePass {
	for _, fps := range passes {
		for _, fp := range fps {
			if fp.path == path {
				return fp
			}
		}
	}
	return nil
}

// checkPackage runs the per-package phase: syntactic checks always, typed
// checks when the package type-checks (lazily triggered here, so cached
// packages never pay for type resolution).
func checkPackage(ld *loader, p *Package, fps []*filePass, suite []analyzer, st *runState) cachedPackage {
	var cp cachedPackage
	needTypes := false
	for _, a := range suite {
		if a.needsTypes() {
			needTypes = true
		}
	}
	if needTypes {
		if err := ld.typeCheck(p); err != nil {
			cp.TypeErr = fmt.Sprintf("%s: %v", p.Path, err)
		}
	}
	for _, fp := range fps {
		for _, a := range suite {
			if a.needsTypes() && p.Info == nil {
				continue
			}
			for _, f := range a.check(fp, st) {
				if !st.enabled(f.Rule) {
					continue
				}
				if _, ok := fp.suppressed(f.Rule, f.Line); ok {
					cp.Allowed = append(cp.Allowed, f)
				} else {
					cp.Findings = append(cp.Findings, f)
				}
			}
		}
	}
	return cp
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Rule < fs[j].Rule
	})
}
