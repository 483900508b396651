// Package lint implements cactuslint, the repository's custom static
// analysis. The value of this reproduction is that every figure and table is
// regenerated bit-for-bit from a deterministic device model; the analyzers
// here turn the invariants that make that true — no wall-clock or global
// randomness in model code, no map-iteration order leaking into emitted
// output, no non-finite float reaching a JSON boundary unclamped, all
// modeled GPU work routed through gpu.Device.Launch, no silently dropped
// errors on stores/sinks/closers — into machine-checked rules instead of
// reviewer vigilance. A second group guards the serving layer's
// concurrency: annotated lock discipline, context propagation, atomic
// access, lock order and goroutine joins.
//
// Analyzers that follow calls (lockorder, golife) use static resolution
// only: Run indexes every loaded function declaration by its full name, and
// a call resolves when it names a function or a method on a concrete
// receiver. A call through an interface method or a function value is not
// followed; lockorder reports one made under a held lock, and golife
// reports a goroutine that runs one, so an unseen target is a finding
// rather than a silent gap.
//
// The driver is dependency-free: packages are parsed with go/parser and
// type-checked with go/types against export data produced by `go list
// -export` (see load.go). Findings print as "file:line: analyzer: message";
// a finding can be suppressed with a comment on the same line or the line
// above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical "file:line: analyzer: message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path; analyzer scopes match against it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one invariant checker. An analyzer is either per-package
// (Run) or whole-program (RunProgram): per-package analyzers see one
// package at a time, whole-program analyzers see every in-scope package at
// once. Both kinds can follow static calls into any loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// ScopeDoc is the human-readable scope for `cactuslint -list`; empty
	// means "all packages".
	ScopeDoc string
	// Scope restricts the analyzer to packages for which it returns true.
	// A nil Scope means every package.
	Scope func(pkgPath string) bool
	// Run is the per-package entry point; nil for whole-program analyzers.
	Run func(*Pass)
	// RunProgram is the whole-program entry point, called once with every
	// in-scope package; nil for per-package analyzers.
	RunProgram func(*ProgramPass)
}

// Pass couples an analyzer with one package for a single run.
type Pass struct {
	*Package
	// funcs indexes every loaded function declaration, not just this
	// package's.
	funcs    funcIndex
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass couples a whole-program analyzer with every in-scope package
// for a single run.
type ProgramPass struct {
	// Pkgs are the packages the analyzer's Scope admits, in path order.
	Pkgs []*Package
	// Fset positions every file of every package.
	Fset *token.FileSet
	// funcs indexes every loaded function declaration, in scope or not.
	funcs    funcIndex
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// funcDecl is one loaded function declaration with the package it was
// type-checked in, so a callee's body is read with its own type
// information.
type funcDecl struct {
	*ast.FuncDecl
	pkg *Package
}

// funcIndex holds every loaded function declaration with a body, keyed by
// types.Func.FullName(). The key is a name, not the *types.Func, because
// each package is type-checked against export data: a call in one package
// refers to a different object than the declaration it names in another.
type funcIndex map[string]funcDecl

func indexFuncs(pkgs []*Package) funcIndex {
	ix := make(funcIndex)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					ix[fn.FullName()] = funcDecl{FuncDecl: fd, pkg: pkg}
				}
			}
		}
	}
	return ix
}

// decl returns the loaded declaration of fn; ok is false for functions
// outside the loaded packages (the standard library, say).
func (ix funcIndex) decl(fn *types.Func) (funcDecl, bool) {
	d, ok := ix[fn.Origin().FullName()]
	return d, ok
}

// staticCallee resolves the function or concrete method a call always
// invokes, or nil when the target is chosen at run time (an interface
// method or a function value) and for built-ins, conversions and function
// literals.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || isInterfaceMethod(fn) {
		return nil
	}
	return fn
}

// dynamicCall reports whether a call's target is chosen at run time: an
// interface method or a function value.
func dynamicCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return false
	}
	if tv := info.Types[fun]; tv.IsType() || tv.IsBuiltin() {
		return false
	}
	fn := calleeFunc(info, call)
	return fn == nil || isInterfaceMethod(fn)
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// Analyzers returns every cactuslint analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterminism, FiniteFlow, LaunchPath, ErrCheckStrict, UnitSafety,
		MutexGuard, CtxFlow, AtomicSafe, LockOrder, GoLife,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// modelPackages are the packages whose outputs feed the paper's figures and
// tables and therefore must be bit-for-bit deterministic. nodeterminism and
// finiteflow apply here (and to subpackages).
var modelPackages = []string{
	"repro/internal/gpu",
	"repro/internal/trace",
	"repro/internal/report",
	"repro/internal/telemetry",
	"repro/internal/stats",
	"repro/internal/roofline",
	"repro/internal/core",
	"repro/internal/units",
}

func modelScope(path string) bool {
	for _, p := range modelPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// gpuPackage reports whether path is the device-model package (the one
// place allowed to construct launch results and compute occupancy).
func gpuPackage(path string) bool {
	return path == "gpu" || strings.HasSuffix(path, "/gpu")
}

// Run applies the analyzers to the packages, filters suppressed findings,
// and returns the rest sorted by position. The function index every
// analyzer resolves static calls through is built once, over every
// package.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	funcs := indexFuncs(pkgs)
	// Suppressions are collected globally so whole-program findings filter
	// the same way per-package ones do.
	supAll := make(map[string]map[int][]directive)
	for _, pkg := range pkgs {
		sup, malformed := suppressions(pkg)
		all = append(all, malformed...)
		for file, lines := range sup {
			supAll[file] = lines
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			var fs []Finding
			a.Run(&Pass{Package: pkg, funcs: funcs, analyzer: a, findings: &fs})
			for _, f := range fs {
				if !suppressed(supAll, f) {
					all = append(all, f)
				}
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.Scope == nil || a.Scope(pkg.Path) {
				scoped = append(scoped, pkg)
			}
		}
		if len(scoped) == 0 {
			continue
		}
		var fs []Finding
		a.RunProgram(&ProgramPass{Pkgs: scoped, Fset: scoped[0].Fset, funcs: funcs, analyzer: a, findings: &fs})
		for _, f := range fs {
			if !suppressed(supAll, f) {
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

// ignorePrefix opens a suppression directive.
const ignorePrefix = "lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
}

// suppressions collects the //lint:ignore directives of a package, indexed
// by file and line, and reports malformed ones as findings.
func suppressions(pkg *Package) (map[string]map[int][]directive, []Finding) {
	sup := make(map[string]map[int][]directive)
	var malformed []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						Pos: pos, Analyzer: "lint",
						Message: `malformed suppression: want "//lint:ignore <analyzer> <reason>"`,
					})
					continue
				}
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = make(map[int][]directive)
				}
				sup[pos.Filename][pos.Line] = append(sup[pos.Filename][pos.Line],
					directive{analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
			}
		}
	}
	return sup, malformed
}

// Suppression is one well-formed //lint:ignore directive, for the
// cactuslint -suppressions inventory.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// String renders the suppression as "file:line: analyzer: reason".
func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Reason)
}

// CollectSuppressions inventories every well-formed //lint:ignore directive
// of the packages, sorted by file, line, and analyzer. Malformed directives
// are excluded — Run already reports those as findings. The list is the
// input to the suppression budget: CI pins its length so the escape hatch
// cannot widen silently.
func CollectSuppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		sup, _ := suppressions(pkg)
		for file, lines := range sup {
			for line, ds := range lines {
				for _, d := range ds {
					out = append(out, Suppression{
						Pos:      token.Position{Filename: file, Line: line},
						Analyzer: d.analyzer,
						Reason:   d.reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// suppressed reports whether a directive on the finding's line or the line
// above names the finding's analyzer.
func suppressed(sup map[string]map[int][]directive, f Finding) bool {
	lines := sup[f.Pos.Filename]
	for _, d := range append(lines[f.Pos.Line], lines[f.Pos.Line-1]...) {
		if d.analyzer == f.Analyzer {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call invokes, or nil for
// calls through function values, built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

var errorType = types.Universe.Lookup("error").Type()

// recvString renders a method's receiver type for messages ("*os.File").
func recvString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Name()
		}
		return ""
	}
	return types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
}
