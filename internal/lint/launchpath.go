package lint

import (
	"go/ast"
	"go/types"
)

// LaunchPath enforces the model's single-entry invariant: every piece of
// simulated GPU work flows through gpu.Device.Launch. A package outside
// internal/gpu that fabricates a gpu.LaunchResult or gpu.Occupancy is
// bypassing the timing model — the profiler, cache, and figures would
// silently trust it.
//
// A composite-literal check alone would let a helper launder a result
// (declare a zero value, assign its fields, return it), so three rules
// apply outside internal/gpu:
//
//  1. composite literals of the result types are fabrication;
//  2. writing any field of a result-typed value is fabrication —
//     modeled results are immutable facts once Device.Launch produced
//     them;
//  3. returning a variable whose only binding is a zero-value `var`
//     declaration is fabrication (the zero value escapes as if it were a
//     modeled result).
//
// Every fabrication is reported where it is forged, so a caller that
// merely passes a forged result on needs no finding of its own: the
// helper's finding already names the defect. Values genuinely derived
// from the model stay clean: results assigned from Device.Launch (or any
// call), copies, slices built with make+copy, and zero-value vars that are
// later wholly reassigned are all accepted.
var LaunchPath = &Analyzer{
	Name: "launchpath",
	Doc: "forbid fabricating gpu.LaunchResult/gpu.Occupancy outside " +
		"internal/gpu (literals, field writes, zero-value escapes); " +
		"modeled results come only from Device.Launch",
	ScopeDoc: "all packages outside internal/gpu",
	Scope:    func(path string) bool { return !gpuPackage(path) },
	Run:      runLaunchPath,
}

// resultTypeName returns "LaunchResult" or "Occupancy" when t is one of
// the model's result types from a gpu package, else "".
func resultTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !gpuPackage(obj.Pkg().Path()) {
		return ""
	}
	switch obj.Name() {
	case "LaunchResult", "Occupancy":
		return obj.Name()
	}
	return ""
}

func runLaunchPath(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncDecl:
				if st.Body != nil {
					checkZeroReturns(p, st.Body)
				}
			case *ast.FuncLit:
				checkZeroReturns(p, st.Body)
			case *ast.CompositeLit:
				switch resultTypeName(p.Info.TypeOf(st)) {
				case "LaunchResult":
					p.Reportf(st.Pos(), "gpu.LaunchResult constructed outside internal/gpu; modeled results must come from Device.Launch")
				case "Occupancy":
					p.Reportf(st.Pos(), "gpu.Occupancy constructed outside internal/gpu; occupancy is computed by Device.Launch")
				}
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					reportFieldWrite(p, lhs)
				}
			case *ast.IncDecStmt:
				reportFieldWrite(p, st.X)
			}
			return true
		})
	}
}

// reportFieldWrite applies rule 2 to one assigned expression.
func reportFieldWrite(p *Pass, lhs ast.Expr) {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if name := resultTypeName(p.Info.TypeOf(sel.X)); name != "" {
			p.Reportf(lhs.Pos(),
				"field write to gpu.%s outside internal/gpu mutates a modeled result; results come only from Device.Launch", name)
		}
	}
}

// checkZeroReturns applies rule 3 to one function body (nested literals
// excluded — they are their own functions): returning a variable whose
// only binding is a zero-value declaration of a result type.
func checkZeroReturns(p *Pass, body *ast.BlockStmt) {
	zeroVars := make(map[types.Object]string) // object -> result type name
	assigned := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ValueSpec:
			if len(st.Values) != 0 || st.Type == nil {
				return true
			}
			name := resultTypeName(p.Info.TypeOf(st.Type))
			if name == "" {
				return true
			}
			for _, id := range st.Names {
				if obj := p.Info.Defs[id]; obj != nil {
					zeroVars[obj] = name
				}
			}
		case *ast.AssignStmt:
			// Whole assignments and field writes both count as bindings
			// here: rule 2 reports the field writes on its own, so rule 3
			// only flags values that stayed untouched zeros.
			for _, lhs := range st.Lhs {
				if id := baseIdent(lhs); id != nil {
					if obj := identObj(p.Info, id); obj != nil {
						assigned[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id := baseIdent(st.X); id != nil {
				if obj := identObj(p.Info, id); obj != nil {
					assigned[obj] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := identObj(p.Info, id); obj != nil {
						assigned[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(zeroVars) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Uses[id]
			if name, isZero := zeroVars[obj]; isZero && !assigned[obj] {
				p.Reportf(res.Pos(),
					"zero-value gpu.%s escapes via return; modeled results must come from Device.Launch", name)
			}
		}
		return true
	})
}

// baseIdent unwraps an lvalue to its base identifier: r in r, r.Time,
// and r.Occ.BlocksPerSM; nil for anything rooted elsewhere.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier whether it is a use or a definition
// (the := form defines).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
