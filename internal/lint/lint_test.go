package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixtureCases pairs each analyzer with its fixture package. The asPath puts
// the fixture inside (or outside) the analyzer's scope without moving files.
var fixtureCases = []struct {
	dir      string
	asPath   string
	analyzer *Analyzer
}{
	{"nodeterminism", "repro/internal/core/fixture", NoDeterminism},
	{"finiteflow", "repro/internal/telemetry/fixture", FiniteFlow},
	{"launchpath", "repro/internal/profiler/fixture", LaunchPath},
	{"errcheckstrict", "repro/cmd/fixture", ErrCheckStrict},
	{"unitsafety", "repro/internal/gpu/fixture", UnitSafety},
	{"mutexguard", "repro/internal/server/fixture", MutexGuard},
	{"ctxflow", "repro/internal/server/fixture", CtxFlow},
	{"atomicsafe", "repro/internal/telemetry/fixture", AtomicSafe},
	{"lockorder", "repro/internal/server/fixture", LockOrder},
	{"golife", "repro/internal/server/fixture", GoLife},
}

// wantRe extracts the quoted substrings of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// collectWants parses `// want "substr"` comments out of a fixture package.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{file: filepath.Base(pos.Filename), line: pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", pkg.Path)
	}
	return wants
}

// TestAnalyzerFixtures checks every analyzer against its fixture: each
// `// want` comment must produce a finding on that line, and no finding may
// appear without one. The unguarded fixture lines double as false-positive
// coverage, and each fixture carries a //lint:ignore suppression that must
// hold.
func TestAnalyzerFixtures(t *testing.T) {
	loader := newFixtureLoader(filepath.Join("testdata", "src"))
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := loader.load(tc.dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			findings := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			wants := collectWants(t, pkg)
			for _, f := range findings {
				key := wantKey{file: filepath.Base(f.Pos.Filename), line: f.Pos.Line}
				matched := -1
				for i, w := range wants[key] {
					if strings.Contains(f.Message, w) {
						matched = i
						break
					}
				}
				if matched < 0 {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
			}
			for key, rest := range wants {
				for _, w := range rest {
					t.Errorf("missing finding at %s:%d matching %q", key.file, key.line, w)
				}
			}
		})
	}
}

// TestScopePredicates verifies the analyzers' scoping: loading the same
// nodeterminism fixture under a path outside the model packages must produce
// zero findings, and loading the launchpath fixture AS a gpu package must
// silence launchpath.
func TestScopePredicates(t *testing.T) {
	t.Run("nodeterminism-out-of-scope", func(t *testing.T) {
		loader := newFixtureLoader(filepath.Join("testdata", "src"))
		pkg, err := loader.load("nodeterminism", "example.com/outside/model")
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{NoDeterminism}); len(findings) != 0 {
			t.Errorf("out-of-scope package produced findings: %v", findings)
		}
	})
	t.Run("launchpath-inside-gpu", func(t *testing.T) {
		loader := newFixtureLoader(filepath.Join("testdata", "src"))
		pkg, err := loader.load("launchpath", "repro/internal/gpu")
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{LaunchPath}); len(findings) != 0 {
			t.Errorf("gpu-scoped package produced launchpath findings: %v", findings)
		}
	})
	t.Run("ctxflow-out-of-scope", func(t *testing.T) {
		loader := newFixtureLoader(filepath.Join("testdata", "src"))
		pkg, err := loader.load("ctxflow", "example.com/outside/serving")
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{CtxFlow}); len(findings) != 0 {
			t.Errorf("out-of-scope package produced ctxflow findings: %v", findings)
		}
	})
	t.Run("golife-out-of-scope", func(t *testing.T) {
		loader := newFixtureLoader(filepath.Join("testdata", "src"))
		pkg, err := loader.load("golife", "example.com/outside/serving")
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{GoLife}); len(findings) != 0 {
			t.Errorf("out-of-scope package produced golife findings: %v", findings)
		}
	})
}

// TestMalformedSuppression checks that a reasonless //lint:ignore directive
// is itself reported and does not suppress the finding under it.
func TestMalformedSuppression(t *testing.T) {
	loader := newFixtureLoader(filepath.Join("testdata", "src"))
	pkg, err := loader.load("malformed", "repro/cmd/malformed")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{ErrCheckStrict})
	var sawMalformed, sawDrop bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "malformed suppression"):
			sawMalformed = true
		case f.Analyzer == "errcheckstrict":
			sawDrop = true
		}
	}
	if !sawMalformed {
		t.Errorf("missing malformed-suppression finding; got %v", findings)
	}
	if !sawDrop {
		t.Errorf("reasonless directive must not suppress the finding below it; got %v", findings)
	}
}

// TestFindingString pins the file:line: analyzer: message output format.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "nodeterminism", Message: "call to time.Now"}
	f.Pos.Filename = "internal/core/core.go"
	f.Pos.Line = 42
	const want = "internal/core/core.go:42: nodeterminism: call to time.Now"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestSuppressionBudget pins the repository's //lint:ignore inventory: the
// CI gate that makes adding an exception a reviewed, counted act. When this
// fails after adding a deliberate suppression, list the inventory with
// `go run ./cmd/cactuslint -suppressions ./...`, confirm each reason still
// holds, and bump the budget in the same commit. Skipped in -short mode
// because it type-checks the full repository.
func TestSuppressionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo suppression inventory is not short")
	}
	pkgs := repoPackages(t)
	sups := CollectSuppressions(pkgs)
	const budget = 7 // 6 nodeterminism (telemetry wall time) + 1 golife (detached cell study, joined via c.done by every asker)
	if len(sups) != budget {
		for _, s := range sups {
			t.Logf("suppression: %s", s)
		}
		t.Errorf("repository has %d //lint:ignore suppressions, budget pins %d; review the inventory above and adjust the budget deliberately", len(sups), budget)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("suppression without a reason at %s:%d", s.Pos.Filename, s.Pos.Line)
		}
	}
}

// TestRepoIsClean runs every analyzer over the whole module and requires
// zero findings: the invariants hold at HEAD. Skipped in -short mode because
// it type-checks the full repository.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint is not short")
	}
	if findings := Run(repoPackages(t), Analyzers()); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("finding at HEAD: %s", f)
		}
	}
}

// TestStaticCalleeAcrossPackages checks that a call resolves to its
// declaration in another package: profiler.(*Session).TotalWarpInstructions
// calls isa.Mix.Total. Each package is type-checked against export data,
// so the call refers to a different *types.Func than the declaration, and
// single-package fixtures cannot exercise that. Skipped in -short mode
// because it type-checks the full repository.
func TestStaticCalleeAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo load is not short")
	}
	funcs := indexFuncs(repoPackages(t))
	caller, ok := funcs["(*repro/internal/profiler.Session).TotalWarpInstructions"]
	if !ok {
		t.Fatal("profiler.(*Session).TotalWarpInstructions not indexed")
	}
	var got []string
	ast.Inspect(caller.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := staticCallee(caller.pkg.Info, call); fn != nil && fn.Name() == "Total" {
				if d, ok := funcs.decl(fn); ok {
					got = append(got, d.pkg.Path+" "+d.Name.Name)
				}
			}
		}
		return true
	})
	if want := []string{"repro/internal/isa Total"}; !slices.Equal(got, want) {
		t.Errorf("Mix.Total call resolved to %q, want %q", got, want)
	}
}

// TestLockOrderDynamicCallsUnderLock checks the two dynamic-call findings
// the fixture does not carry: a function-value call under a lock, and an
// interface call reached through a static callee of the locked region.
func TestLockOrderDynamicCallsUnderLock(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "bus")
	const src = `package bus

import "sync"

type hook interface{ fire() }

type bus struct {
	mu sync.Mutex
	h  hook
	fn func()
}

func (b *bus) emit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dispatch()
}

func (b *bus) dispatch() { b.h.fire() }

func (b *bus) run() {
	b.mu.Lock()
	b.fn()
	b.mu.Unlock()
	b.fn()
}
`
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bus.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := newFixtureLoader(root).load("bus", "example.com/bus")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var got []string
	for _, f := range Run([]*Package{pkg}, []*Analyzer{LockOrder}) {
		got = append(got, fmt.Sprintf("%d: %s", f.Pos.Line, f.Message))
	}
	want := []string{
		"16: call to (*example.com/bus.bus).dispatch made while bus.bus.mu is held reaches a call through interface method (example.com/bus.hook).fire at",
		"23: call through function value b.fn made while bus.bus.mu is held",
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// repoOnce caches the full-repo load: type-checking the module against
// export data is by far the most expensive step, and every full-repo test
// and benchmark shares one immutable package set.
var repoOnce struct {
	sync.Once
	pkgs []*Package
	err  error
}

func repoPackages(tb testing.TB) []*Package {
	tb.Helper()
	repoOnce.Do(func() {
		repoOnce.pkgs, repoOnce.err = Load(filepath.Join("..", ".."), "./...")
	})
	if repoOnce.err != nil {
		tb.Fatalf("load repo: %v", repoOnce.err)
	}
	return repoOnce.pkgs
}

// BenchmarkLintRepo measures one full analyzer run (all ten analyzers,
// static call resolution through one function index) over the
// already-loaded repository: the marginal cost of linting once packages are
// type-checked.
//
// Reference on a 2-CPU box (go test -bench LintRepo -benchtime 10x -cpu 2):
//
//	with the CHA call graph shared by lockorder, golife and launchpath: ~61ms/op quiet
//	with static resolution (call graph deleted): ~50ms/op quiet
//
// Interleaved on the same box under load the two read 187–250ms/op and
// 94–137ms/op.
func BenchmarkLintRepo(b *testing.B) {
	pkgs := repoPackages(b)
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Run(pkgs, analyzers); len(findings) != 0 {
			b.Fatalf("repo not clean: %v", findings[0])
		}
	}
}
