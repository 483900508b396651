package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
)

// GoLife requires every goroutine spawned in the serving layer to have a
// statically visible join or cancellation path. PR 9's runtime leak
// checker catches goroutines that outlive a test; this is the compile-time
// complement: a `go` statement with no structural way to stop is either a
// leak or an undocumented detachment, and in a drained server both are
// bugs.
//
// A go statement is accepted when the spawned function — its literal body,
// or for a named callee every function reachable from it over non-go call
// edges — shows any of:
//
//   - a sync.WaitGroup Done call (by the repo's convention the spawner
//     holds the matching Add and someone Waits);
//   - a receive from a context's Done() channel (ctx-derived loop exit);
//   - a range over a channel (the feeder's close is the exit);
//   - a close of, or send on, a channel the spawning function receives on,
//     matched syntactically by expression — close(done) in the goroutine
//     against <-done in the spawner — with one level of
//     parameter-to-argument translation for named callees, so
//     `go s.notify(done)` closing its parameter matches too.
//
// A go call whose targets are all outside the analyzed program (say,
// spawning a stdlib function) produces no call-graph edge and is accepted:
// unknown is not evidence of a leak. Everything else is a finding. A
// goroutine that must outlive its spawner (the server cell's detached
// study) carries a reasoned //lint:ignore suppression, making the
// detachment a documented, counted decision. The check proves a join
// edifice exists, not that it is correct — -race and the runtime leak
// checker remain the schedule-sensitive backstop.
var GoLife = &Analyzer{
	Name: "golife",
	Doc: "require every go statement to have a statically visible join or " +
		"cancellation path (WaitGroup, spawner-received channel, or ctx exit)",
	ScopeDoc:       "internal/server, internal/core, internal/telemetry",
	Scope:          goLifeScope,
	NeedsCallGraph: true,
	Run:            runGoLife,
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
				if fn.Body == nil {
					return true
				}
				if tf, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
					if node := p.Graph.NodeOf(tf); node != nil {
						checkGoStmts(p, node, fn.Body)
					}
				}
			case *ast.FuncLit:
				if node := p.Graph.NodeOfLit(fn); node != nil {
					checkGoStmts(p, node, fn.Body)
				}
			}
			return true
		})
	}
}

// checkGoStmts checks the go statements lexically in body — nested
// literals are their own spawning scopes, visited by runGoLife.
func checkGoStmts(p *Pass, node *callgraph.Node, body *ast.BlockStmt) {
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
		if !goJoinEvidence(p, node, g, recvKeys) {
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

// goJoinEvidence reports whether the go statement's spawned function shows
// a join or cancellation path. Targets come from the call graph (so
// interface dispatch and function values resolve like everywhere else);
// with no in-program target the spawn is accepted as unknown-benign.
func goJoinEvidence(p *Pass, node *callgraph.Node, g *ast.GoStmt, recvKeys map[string]bool) bool {
	var targets []*callgraph.Edge
	for _, e := range node.Out {
		if e.Go && e.Pos == g.Call.Pos() && e.Kind != callgraph.Closure {
			targets = append(targets, e)
		}
	}
	if len(targets) == 0 {
		return true
	}
	for _, e := range targets {
		// The directly spawned function gets channel-key matching with
		// parameter translation; deeper reachable bodies contribute the
		// positional-independent evidence (Done, ctx, range).
		if bodyJoinEvidence(p, e.Callee, g.Call, recvKeys, true) {
			return true
		}
		reach := p.Graph.Reachable([]*callgraph.Node{e.Callee}, func(e *callgraph.Edge) bool {
			return !e.Go
		})
		for _, m := range reach {
			if m != e.Callee && bodyJoinEvidence(p, m, nil, nil, false) {
				return true
			}
		}
	}
	return false
}

// bodyJoinEvidence scans one function node's body for join or cancellation
// evidence. When direct is true, channel close/send sites are matched
// against the spawner's receive keys — literally for captured channels,
// and through call-argument translation for parameters of a named callee
// (call is the go statement's call in that case).
func bodyJoinEvidence(p *Pass, node *callgraph.Node, call *ast.CallExpr, recvKeys map[string]bool, direct bool) bool {
	info := node.Info
	paramArg := paramArgKeys(p, node, call)
	found := false
	ast.Inspect(node.Body, func(n ast.Node) bool {
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

// paramArgKeys maps a named callee's channel-typed parameter names to the
// spawner-side keys of the go call's corresponding arguments, so a close
// of a parameter matches a receive on the argument. Nil when there is no
// call to translate through (the spawned literal captures instead).
func paramArgKeys(p *Pass, node *callgraph.Node, call *ast.CallExpr) map[string]string {
	if call == nil || node.FType == nil || node.FType.Params == nil {
		return nil
	}
	out := make(map[string]string)
	i := 0
	for _, field := range node.FType.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			if i < len(call.Args) && isChanType(node.Info.TypeOf(field.Type)) {
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
