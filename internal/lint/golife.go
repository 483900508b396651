package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLife requires every goroutine spawned in the serving layer to have a
// statically visible join or cancellation path. The runtime leak checker
// (internal/testutil) catches goroutines that outlive a test; this is the
// compile-time complement: a `go` statement with no structural way to
// stop is either a leak or an undocumented detachment, and in a drained
// server both are bugs.
//
// A go statement is accepted when the spawned function — a literal, or a
// static callee — or any function reachable from it over static non-go
// calls shows any of:
//
//   - a sync.WaitGroup Done call (by the repo's convention the spawner
//     holds the matching Add and someone Waits);
//   - a receive from a context's Done() channel (ctx-derived loop exit);
//   - a range over a channel (the feeder's close is the exit);
//   - a close of, or send on, a channel the spawning function receives on,
//     matched syntactically by expression — close(done) in the goroutine
//     against <-done in the spawner — with one level of
//     parameter-to-argument translation for the spawned function, so
//     `go s.notify(done)` closing its parameter matches too.
//
// A spawn of a static callee outside the loaded packages (a stdlib
// function, say) has no body to inspect and is accepted. A spawn of an
// interface method or a function value cannot be resolved statically and
// is a finding: spawn a literal or a named function so the join path is
// visible. A goroutine that must outlive its spawner carries a reasoned
// //lint:ignore suppression, making the detachment a documented, counted
// decision. The check proves a join edifice exists, not that it is
// correct — -race and the runtime leak checker remain the
// schedule-sensitive backstop.
var GoLife = &Analyzer{
	Name: "golife",
	Doc: "require every go statement to have a statically visible join or " +
		"cancellation path (WaitGroup, spawner-received channel, or ctx exit)",
	ScopeDoc: "internal/server, internal/core, internal/telemetry",
	Scope:    goLifeScope,
	Run:      runGoLife,
}

// goLifeScope covers the long-running serving layer, where an unjoined
// goroutine accumulates instead of exiting with the process.
func goLifeScope(path string) bool {
	for _, p := range []string{
		"repro/internal/server", "repro/internal/core", "repro/internal/telemetry",
	} {
		if path == p || len(path) > len(p) && path[:len(p)+1] == p+"/" {
			return true
		}
	}
	return false
}

func runGoLife(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkGoStmts(p, fn.Body)
				}
			case *ast.FuncLit:
				checkGoStmts(p, fn.Body)
			}
			return true
		})
	}
}

// spawnedFunc is the function a go statement runs, with the type
// information of the package that declares it.
type spawnedFunc struct {
	body  *ast.BlockStmt
	ftype *ast.FuncType
	info  *types.Info
}

// checkGoStmts checks the go statements lexically in body — nested
// literals are their own spawning scopes, visited by runGoLife.
func checkGoStmts(p *Pass, body *ast.BlockStmt) {
	var spawns []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			spawns = append(spawns, g)
		}
		return true
	})
	if len(spawns) == 0 {
		return
	}
	recvKeys := spawnerReceiveKeys(p, body)
	for _, g := range spawns {
		lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		fn := staticCallee(p.Info, g.Call)
		var target spawnedFunc
		switch {
		case isLit:
			target = spawnedFunc{lit.Body, lit.Type, p.Info}
		case fn != nil:
			d, ok := p.funcs.decl(fn)
			if !ok {
				continue // outside the loaded packages: no body to inspect
			}
			target = spawnedFunc{d.Body, d.Type, d.pkg.Info}
		case dynamicCall(p.Info, g.Call):
			p.Reportf(g.Pos(),
				"goroutine runs %s, which golife cannot resolve statically; "+
					"spawn a function literal or a named function so its join path is visible",
				types.ExprString(g.Call.Fun))
			continue
		default:
			continue // a built-in
		}
		if !goJoinEvidence(p, target, g.Call, recvKeys) {
			p.Reportf(g.Pos(),
				"goroutine has no statically visible join or cancellation path "+
					"(no WaitGroup.Done, no channel the spawner receives on, no ctx-derived exit); "+
					"join it or suppress with the reason it must outlive its spawner")
		}
	}
}

// spawnerReceiveKeys collects the canonical keys of every channel
// expression the spawning body receives from or ranges over, outside
// nested literals.
func spawnerReceiveKeys(p *Pass, body *ast.BlockStmt) map[string]bool {
	keys := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				keys[exprKey(p.Fset, ast.Unparen(st.X))] = true
			}
		case *ast.RangeStmt:
			if isChanType(p.Info.TypeOf(st.X)) {
				keys[exprKey(p.Fset, ast.Unparen(st.X))] = true
			}
		}
		return true
	})
	return keys
}

// goJoinEvidence reports whether the spawned function, or a function it
// reaches over static non-go calls, shows a join or cancellation path.
func goJoinEvidence(p *Pass, target spawnedFunc, call *ast.CallExpr, recvKeys map[string]bool) bool {
	// The spawned function gets channel-key matching with parameter
	// translation; deeper bodies contribute the position-independent
	// evidence (Done, ctx, range).
	if bodyJoinEvidence(p, target.info, target.body, recvKeys, paramArgKeys(p, target, call)) {
		return true
	}
	visited := map[*ast.BlockStmt]bool{target.body: true}
	queue := staticCallees(p, target.info, target.body)
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if visited[d.Body] {
			continue
		}
		visited[d.Body] = true
		if bodyJoinEvidence(p, d.pkg.Info, d.Body, nil, nil) {
			return true
		}
		queue = append(queue, staticCallees(p, d.pkg.Info, d.Body)...)
	}
	return false
}

// staticCallees returns the loaded declarations body calls statically,
// nested literals included, go-spawned calls excluded.
func staticCallees(p *Pass, info *types.Info, body *ast.BlockStmt) []funcDecl {
	var out []funcDecl
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			spawned[st.Call] = true
		case *ast.CallExpr:
			if fn := staticCallee(info, st); fn != nil && !spawned[st] {
				if d, ok := p.funcs.decl(fn); ok {
					out = append(out, d)
				}
			}
		}
		return true
	})
	return out
}

// bodyJoinEvidence scans one function body for join or cancellation
// evidence. With recvKeys (the spawned function itself), channel
// close/send sites are matched against the spawner's receive keys —
// literally for captured channels, and through paramArg for parameters.
func bodyJoinEvidence(p *Pass, info *types.Info, body *ast.BlockStmt, recvKeys map[string]bool, paramArg map[string]string) bool {
	direct := recvKeys != nil
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, st); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
				found = true // WaitGroup.Done: the spawner-side Add/Wait joins it
				return false
			}
			if direct && len(st.Args) == 1 {
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "close" && info.Uses[id] == types.Universe.Lookup("close") {
					if chanKeyMatches(p, info, st.Args[0], recvKeys, paramArg) {
						found = true
						return false
					}
				}
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && isCtxDoneCall(info, st.X) {
				found = true // select/receive on ctx.Done(): cancellation path
				return false
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(st.X)) {
				found = true // ranges over a channel: exits when the feeder closes it
				return false
			}
		case *ast.SendStmt:
			if direct && chanKeyMatches(p, info, st.Chan, recvKeys, paramArg) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// paramArgKeys maps the spawned function's channel-typed parameter names
// to the spawner-side keys of the go call's corresponding arguments, so a
// close of a parameter matches a receive on the argument.
func paramArgKeys(p *Pass, target spawnedFunc, call *ast.CallExpr) map[string]string {
	if target.ftype.Params == nil {
		return nil
	}
	out := make(map[string]string)
	i := 0
	for _, field := range target.ftype.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			if i < len(call.Args) && isChanType(target.info.TypeOf(field.Type)) {
				out[name.Name] = exprKey(p.Fset, ast.Unparen(call.Args[i]))
			}
			i++
		}
	}
	return out
}

// chanKeyMatches reports whether the closed/sent channel expression
// corresponds to one the spawner receives on: by literal key for captured
// channels, or through the parameter-to-argument map.
func chanKeyMatches(p *Pass, info *types.Info, ch ast.Expr, recvKeys map[string]bool, paramArg map[string]string) bool {
	if !isChanType(info.TypeOf(ch)) {
		return false
	}
	ch = ast.Unparen(ch)
	key := exprKey(p.Fset, ch)
	if recvKeys[key] {
		return true
	}
	if id, ok := ch.(*ast.Ident); ok {
		if argKey, ok := paramArg[id.Name]; ok && recvKeys[argKey] {
			return true
		}
	}
	return false
}

// isCtxDoneCall reports whether e is a call to Done() on a
// context.Context.
func isCtxDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
