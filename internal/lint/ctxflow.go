package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces request-context propagation through the serving layer.
// Since the repo became a long-running HTTP service, every blocking call
// chain from a handler into core.Engine must carry the request's
// context.Context: a fresh context.Background()/TODO() in a handler path
// silently discards the caller's deadline and cancellation, which is
// exactly how a drained server ends up owning orphaned studies.
//
// In scope (internal/server and internal/core), the analyzer flags:
//
//   - any call to context.Background() or context.TODO(). The two
//     legitimate detachments — the server cell's study, which belongs
//     to every future asker, and the one-shot CLI entry points that have no
//     inbound context — carry reasoned //lint:ignore suppressions, turning
//     each detachment into a documented decision;
//   - nil passed as a context.Context argument (a latent panic in any
//     callee that derives from it);
//   - a context-typed argument inside a function that has its own
//     context.Context (or *http.Request) parameter, where the argument is
//     not derived from that parameter — the in-scope context is dropped on
//     the floor while an unrelated one flows downstream.
//
// Derivation is computed per function literal/declaration to a fixpoint:
// the function's own context parameters and r.Context() calls on request
// parameters seed the good set, and any local assigned from an expression
// that mentions a good source (context.WithTimeout(ctx, d), r.Context(),
// ...) joins it. Closures are separate scopes: a closure with no context
// parameter of its own is exempt from the derivation rule (capturing the
// enclosing context is fine, and intentionally detaching inside one is
// where the suppression goes).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "forbid fresh or dropped contexts on blocking call chains in the " +
		"serving layer",
	ScopeDoc: "internal/server and internal/core",
	Scope:    ctxFlowScope,
	Run:      runCtxFlow,
}

// ctxFlowScope covers the serving layer: the HTTP server and the engine
// library it blocks on.
func ctxFlowScope(path string) bool {
	for _, p := range []string{"repro/internal/server", "repro/internal/core"} {
		if path == p || len(path) > len(p) && path[:len(p)+1] == p+"/" {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// isRequestType reports whether t is *net/http.Request.
func isRequestType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request"
}

// freshContextCall reports a direct context.Background()/context.TODO()
// call and returns which.
func freshContextCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

func runCtxFlow(p *Pass) {
	for _, file := range p.Files {
		// Rule 1: fresh contexts, anywhere in scope.
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := freshContextCall(p.Info, call); name != "" {
					p.Reportf(call.Pos(),
						"context.%s() discards the caller's deadline and cancellation; thread the request context (or suppress with the reason the work must outlive its requester)",
						name)
				}
			}
			return true
		})
		// Rules 2 and 3: per-function argument checks.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkCtxArgs(p, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkCtxArgs(p, fn.Type, fn.Body)
			}
			return true
		})
	}
}

// ctxSources returns the function's context provenance roots: its own
// context.Context parameters and its *http.Request parameters.
func ctxSources(p *Pass, ft *ast.FuncType) (ctxParams, reqParams map[types.Object]bool) {
	ctxParams = make(map[types.Object]bool)
	reqParams = make(map[types.Object]bool)
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			switch {
			case isContextType(obj.Type()):
				ctxParams[obj] = true
			case isRequestType(obj.Type()):
				reqParams[obj] = true
			}
		}
	}
	return
}

// checkCtxArgs applies the nil rule and, when the function has its own
// context source, the derivation rule to every context-typed argument in
// body. Nested function literals are separate scopes and skipped.
func checkCtxArgs(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	ctxParams, reqParams := ctxSources(p, ft)
	good := deriveGood(p, body, ctxParams, reqParams)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own scope; visited by runCtxFlow
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			if !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			arg := ast.Unparen(call.Args[i])
			if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" && p.Info.Uses[id] == types.Universe.Lookup("nil") {
				p.Reportf(arg.Pos(),
					"nil passed as the context.Context argument of %s; pass the request context (or context.Background with a reason)",
					fn.Name())
				continue
			}
			// The derivation rule only applies when this function has a
			// context of its own to thread, and is silent on the fresh
			// Background/TODO calls rule 1 already reports.
			if len(ctxParams) == 0 && len(reqParams) == 0 {
				continue
			}
			if c, ok := arg.(*ast.CallExpr); ok && freshContextCall(p.Info, c) != "" {
				continue
			}
			if !mentionsGood(p, arg, good, reqParams) {
				p.Reportf(arg.Pos(),
					"context argument of %s is not derived from this function's context parameter; the in-scope request context is dropped",
					fn.Name())
			}
		}
		return true
	})
}

// deriveGood computes, to a fixpoint, the set of local variables holding a
// context derived from the function's own sources: assignments whose
// right-hand side mentions a good source mark every context-typed
// left-hand variable good.
func deriveGood(p *Pass, body *ast.BlockStmt, ctxParams, reqParams map[types.Object]bool) map[types.Object]bool {
	good := make(map[types.Object]bool, len(ctxParams))
	for obj := range ctxParams {
		good[obj] = true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsGood := false
			for _, rhs := range as.Rhs {
				if mentionsGood(p, rhs, good, reqParams) {
					rhsGood = true
					break
				}
			}
			if !rhsGood {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj == nil || !isContextType(obj.Type()) || good[obj] {
					continue
				}
				good[obj] = true
				changed = true
			}
			return true
		})
	}
	return good
}

// mentionsGood reports whether expr mentions a good context variable or a
// request-derived context: an identifier in the good set, a request
// parameter (r.Context(), r.WithContext(...)), or any *http.Request-typed
// expression.
func mentionsGood(p *Pass, expr ast.Expr, good, reqParams map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			if obj == nil {
				obj = p.Info.Defs[id]
			}
			if obj != nil && (good[obj] || reqParams[obj] || isRequestType(obj.Type())) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
