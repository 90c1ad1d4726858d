package padvet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a fixture module in a temp dir. files maps
// slash-separated relative paths to source; a go.mod is added unless the
// fixture provides one.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module fixture\n\ngo 1.22\n"
	}
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lint runs the suite (or a rule subset) over a fixture module.
func lint(t *testing.T, dir string, rules ...string) *Result {
	t.Helper()
	res, err := Run(Config{Root: dir, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rulesOf flattens findings to their rule IDs, in order.
func rulesOf(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func wantRules(t *testing.T, got []Finding, want ...string) {
	t.Helper()
	g := strings.Join(rulesOf(got), ",")
	w := strings.Join(want, ",")
	if g != w {
		t.Fatalf("findings %v\nwant rules %s", got, w)
	}
}

func TestLockguardFires(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counter) bad() { c.n++ }

func (c *counter) good() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) bumpLocked() { c.n++ }

// padvet:holds c.mu
func (c *counter) helper() { c.n++ }
`})
	res := lint(t, dir, "lockguard")
	wantRules(t, res.Findings, "lockguard")
	if res.Findings[0].Line != 10 {
		t.Fatalf("finding at line %d, want 10 (the unlocked bump)", res.Findings[0].Line)
	}
	if len(res.TypeErrors) != 0 {
		t.Fatalf("fixture failed to type-check: %v", res.TypeErrors)
	}
}

func TestLockguardBranchMustHold(t *testing.T) {
	// The lock is only held on one branch: a must-held analysis flags the
	// access, a may-held one would not.
	dir := writeModule(t, map[string]string{"a.go": `package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counter) maybe(lock bool) {
	if lock {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n++
}
`})
	res := lint(t, dir, "lockguard")
	wantRules(t, res.Findings, "lockguard")
}

func TestLockguardTypeQualifiedGuard(t *testing.T) {
	// A record struct owned by another type's lock uses the
	// "guarded by <Type>.<mu>" form; holders declare it with padvet:holds.
	dir := writeModule(t, map[string]string{"a.go": `package a

import "sync"

type table struct {
	mu   sync.Mutex
	rows map[string]*row // guarded by mu
}

type row struct {
	hits int // guarded by table.mu
}

func (t *table) bump(k string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows[k].hits++
}

func leak(r *row) { r.hits++ }
`})
	res := lint(t, dir, "lockguard")
	wantRules(t, res.Findings, "lockguard")
	if res.Findings[0].Line != 20 {
		t.Fatalf("finding at line %d, want 20 (the holder-less bump)", res.Findings[0].Line)
	}
}

func TestClockdisciplineFires(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a.go": `package a

import "time"

func f() { time.Sleep(time.Second) }

func g() <-chan time.Time { return time.After(time.Second) }

func h() *time.Timer { return time.NewTimer(time.Second) }

func i() time.Time { return time.Now() }
`,
		// package main owns its wall clock: time.Now is exempt there.
		"cmd/x/main.go": `package main

import "time"

func main() { _ = time.Now() }
`,
	})
	res := lint(t, dir, "time-sleep", "time-timer", "time-now")
	wantRules(t, res.Findings, "time-sleep", "time-timer", "time-timer", "time-now")
}

func TestCtxflowFires(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "context"

type server struct {
	ctx context.Context
}

func bad(id string, ctx context.Context) {}

func ok(ctx context.Context, id string) {}

func root() context.Context { return context.Background() }
`})
	res := lint(t, dir, "ctx-first", "ctx-field", "context-background")
	wantRules(t, res.Findings, "ctx-field", "ctx-first", "context-background")
}

func TestErrcodeFires(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

const (
	CodeA = "a"
	CodeB = "b"
)

var CodeRogue = "rogue" // a var is not a registry entry

type ErrorBody struct{ Code string }

func WriteError(w any, status int, code string, err error, retry int) {}

func f() {
	WriteError(nil, 500, "oops", nil, 0)
	_ = ErrorBody{Code: CodeRogue}
}

func g(b ErrorBody) {
	switch b.Code {
	case CodeA:
	}
}

func h(b ErrorBody) {
	switch b.Code {
	case CodeA, CodeB:
	}
}

func i(b ErrorBody) {
	switch b.Code {
	case CodeA:
	default:
	}
}
`})
	res := lint(t, dir, "errcode-literal", "errcode-undeclared", "errcode-switch")
	wantRules(t, res.Findings, "errcode-literal", "errcode-undeclared", "errcode-switch")
	if !strings.Contains(res.Findings[2].Msg, "CodeB") {
		t.Fatalf("switch finding should name the missing code: %s", res.Findings[2].Msg)
	}
}

func TestMetricnameFires(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a.go": `package a

type reg struct{}

func (reg) Counter(name, help string) int                     { return 0 }
func (reg) CounterVec(name, help string, labels ...string) int { return 0 }
func (reg) Histogram(name, help string) int                   { return 0 }

func f() {
	var r reg
	r.Counter("pad_widgets", "w")
	r.Counter("padBad_total", "w")
	r.Histogram("pad_latency", "h")
	r.CounterVec("pad_reqs_total", "w", "Kind")
	r.Counter("pad_good_total", "ok")
}
`,
		// A second registration of the same family, in another package.
		"b/b.go": `package b

type reg struct{}

func (reg) CounterVec(name, help string, labels ...string) int { return 0 }

func g() {
	var r reg
	r.CounterVec("pad_reqs_total", "w", "kind")
}
`,
	})
	res := lint(t, dir, "metric-name", "metric-label", "metric-dup")
	wantRules(t, res.Findings,
		"metric-name",  // pad_widgets: counter without _total
		"metric-name",  // padBad_total: malformed family name
		"metric-name",  // pad_latency: histogram without unit suffix
		"metric-label", // Kind
		"metric-dup",   // b/b.go re-registers pad_reqs_total
	)
	dup := res.Findings[4]
	if dup.File != "b/b.go" || !strings.Contains(dup.Msg, "a.go:14") {
		t.Fatalf("dup finding should land on the later site and name the first: %v", dup)
	}
}

// nosleepRules are the three rules the nosleep:allow marker may suppress.
var nosleepRules = []string{"time-sleep", "time-timer", "context-background"}

func TestTimeSleepFlagged(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "time"

func f() { time.Sleep(time.Second) }
`})
	res := lint(t, dir, nosleepRules...)
	wantRules(t, res.Findings, "time-sleep")
	if res.Findings[0].Line != 5 {
		t.Fatalf("finding at line %d, want 5", res.Findings[0].Line)
	}
}

func TestTimeTimerFlagged(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "time"

func f() <-chan time.Time { return time.After(time.Second) }

func g() <-chan time.Time { return time.Tick(time.Second) }
`})
	res := lint(t, dir, nosleepRules...)
	wantRules(t, res.Findings, "time-timer", "time-timer")
}

func TestContextBackgroundFlaggedOutsideMain(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"lib.go": `package lib

import "context"

func f() context.Context { return context.Background() }
`,
		// package main owns its context root.
		"cmd/x/main.go": `package main

import "context"

func main() { _ = context.Background() }
`,
	})
	res := lint(t, dir, nosleepRules...)
	wantRules(t, res.Findings, "context-background")
	if res.Findings[0].File != "lib.go" {
		t.Fatalf("finding %v, want only the library one", res.Findings[0])
	}
}

func TestLegacyAllowAnnotation(t *testing.T) {
	// The reasoned marker suppresses context.Background; g's bare marker
	// has no reason and suppresses nothing.
	dir := writeModule(t, map[string]string{"a.go": `package a

import (
	"context"
	"time"
)

func f() context.Context {
	return context.Background() // nosleep:allow queue base context, cancelled in Close
}

func g() { time.Sleep(1) } // nosleep:allow
`})
	res := lint(t, dir, nosleepRules...)
	wantRules(t, res.Findings, "time-sleep")
	wantRules(t, res.Allowed, "context-background")
	if res.Findings[0].Line != 12 {
		t.Fatalf("finding at line %d, want 12 (the bare marker's sleep)", res.Findings[0].Line)
	}
}

func TestAllowAnnotations(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "time"

func f() { time.Sleep(time.Second) } // padvet:allow time-sleep fixture exercises the allow path

func g() { time.Sleep(time.Second) } // nosleep:allow legacy annotation still honored

func h() { time.Sleep(time.Second) } // padvet:allow time-now wrong rule does not suppress

func i() { time.Sleep(time.Second) } // padvet:allow time-sleep
`})
	res := lint(t, dir, "time-sleep")
	// f and g are suppressed; h names the wrong rule and i has no reason,
	// so both survive as findings.
	wantRules(t, res.Findings, "time-sleep", "time-sleep")
	wantRules(t, res.Allowed, "time-sleep", "time-sleep")
	if res.Findings[0].Line != 9 || res.Findings[1].Line != 11 {
		t.Fatalf("surviving findings at %v, want lines 9 and 11", res.Findings)
	}
}

func TestAllowOnPreviousCommentLine(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

import "time"

func f() {
	// nosleep:allow a full comment line annotates the line below it
	time.Sleep(1)
}

func g() {
	// nosleep:allow the previous-line form shields only the next line
	_ = 0
	time.Sleep(2)
}

func h() {
	time.Sleep(3) // nosleep:allow an end-of-line annotation covers its own line
	time.Sleep(4)
}
`})
	res := lint(t, dir, "time-sleep")
	// g's sleep is two lines below its annotation, and the second sleep in
	// h is below an end-of-line one.
	wantRules(t, res.Findings, "time-sleep", "time-sleep")
	if res.Findings[0].Line != 13 || res.Findings[1].Line != 18 {
		t.Fatalf("surviving findings at %v, want lines 13 and 18", res.Findings)
	}
	wantRules(t, res.Allowed, "time-sleep", "time-sleep")
}

func TestShadowingAndAliasing(t *testing.T) {
	dir := writeModule(t, map[string]string{
		// A local variable named time is not the time package.
		"a.go": `package a

type clock struct{}

func (clock) Sleep(int) {}

func f() {
	var time clock
	time.Sleep(1)
}
`,
		// An aliased import is still the time package.
		"b/b.go": `package b

import tm "time"

func f() { tm.Sleep(1) }
`,
	})
	res := lint(t, dir, "time-sleep")
	wantRules(t, res.Findings, "time-sleep")
	if res.Findings[0].File != "b/b.go" {
		t.Fatalf("finding %v outside the aliased file", res.Findings[0])
	}
}

func TestSkipsTestsAndTestdata(t *testing.T) {
	sleep := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"time\"\n\nfunc f() { time.Sleep(1) }\n"
	}
	dir := writeModule(t, map[string]string{
		"a_test.go":       sleep("a"),
		"testdata/b/b.go": sleep("b"),
		"c.go":            sleep("a"),
	})
	res := lint(t, dir, "time-sleep")
	wantRules(t, res.Findings, "time-sleep")
	if res.Findings[0].File != "c.go" {
		t.Fatalf("finding %v, want exactly the c.go one", res.Findings[0])
	}
}

// mapCache is an in-memory padvet.Cache for hit/miss accounting.
type mapCache struct{ m map[string][]byte }

func (c *mapCache) Get(key string) ([]byte, bool) { raw, ok := c.m[key]; return raw, ok }
func (c *mapCache) Put(key string, data []byte)   { c.m[key] = data }

func TestCacheHitMiss(t *testing.T) {
	files := map[string]string{
		"a.go": `package a

import "time"

func f() { time.Sleep(time.Second) }
`,
		"b/b.go": `package b

func g() {}
`,
	}
	dir := writeModule(t, files)
	cache := &mapCache{m: make(map[string][]byte)}
	cfg := Config{Root: dir, Cache: cache}

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != cold.Packages {
		t.Fatalf("cold run: %d hits %d misses over %d packages, want all misses",
			cold.CacheHits, cold.CacheMisses, cold.Packages)
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Packages || warm.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits %d misses over %d packages, want all hits",
			warm.CacheHits, warm.CacheMisses, warm.Packages)
	}
	if strings.Join(rulesOf(warm.Findings), ",") != strings.Join(rulesOf(cold.Findings), ",") {
		t.Fatalf("cached findings %v differ from cold findings %v", warm.Findings, cold.Findings)
	}

	// Touching one package invalidates exactly that package.
	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"), []byte("package b\n\nfunc g() { _ = 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.CacheHits != mixed.Packages-1 || mixed.CacheMisses != 1 {
		t.Fatalf("after edit: %d hits %d misses over %d packages, want one miss",
			mixed.CacheHits, mixed.CacheMisses, mixed.Packages)
	}
}

func TestCacheKeyDependsOnRulesAndFacts(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": "package a\n\nfunc f() {}\n"})
	res, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	ld, err := newLoader(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.parseAll()
	if err != nil {
		t.Fatal(err)
	}
	p := pkgs[0]
	base := cacheKey(p, nil, newRunState(nil))
	if got := cacheKey(p, nil, newRunState(nil)); got != base {
		t.Fatalf("cache key not deterministic: %s vs %s", got, base)
	}
	if got := cacheKey(p, []string{"time-sleep"}, newRunState(nil)); got == base {
		t.Fatal("cache key ignores the rule set")
	}
	st := newRunState(nil)
	st.errcodes["CodeNew"] = "new"
	if got := cacheKey(p, nil, st); got == base {
		t.Fatal("cache key ignores the cross-package error-code registry")
	}
}

// TestRepoClean is the CI gate: the repository's own source must be free
// of unannotated padvet findings, full suite, all five analyzers.
func TestRepoClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("cannot locate module root from test directory: %v", err)
	}
	res, err := Run(Config{Root: root, Stderr: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	if len(res.TypeErrors) != 0 {
		t.Errorf("packages failed to type-check (typed analyzers skipped): %v", res.TypeErrors)
	}
}
