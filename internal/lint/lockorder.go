package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder detects potential deadlocks from inconsistent mutex
// acquisition order. It is whole-program: every function's syntactic
// Lock/RLock…Unlock/RUnlock intervals are computed, the locks acquired by
// its callees (transitively, over static calls) are folded in, and every
// "B acquired while A is held" pair becomes an edge A → B in a global
// lock-acquisition graph. A cycle in that graph means two call chains can
// acquire the same locks in opposite orders — the classic ABBA deadlock —
// and is reported once, with the full witness chain (one file:line per
// edge).
//
// Locks are identified by class, not instance: every sync.Mutex/RWMutex
// field of a named type is one class (telemetry.Histogram.mu), as is every
// package-level or local mutex variable. Class-level tracking cannot
// distinguish two instances of the same type locked in sequence (shard A
// then shard B), which would self-cycle; the analyzer therefore reports a
// same-class edge only when it arises through a call (a function that
// locks m and then calls, while holding it, something that locks m again —
// a guaranteed self-deadlock for a plain Mutex), not when one body locks
// two sibling instances directly. Goroutine spawns are not "while
// holding": a `go` statement's callee acquires its locks on another
// schedule, so go calls are not followed.
//
// Calls are followed only where they resolve statically: named functions,
// methods on concrete receivers, and immediately invoked literals. A call
// through an interface method or a function value could acquire anything,
// so one made while a lock is held — directly, or inside a static callee —
// is itself a finding: call it after unlocking, or call the concrete
// method.
//
// The held interval is syntactic and flow-insensitive: a lock is held from
// its Lock call to the first following non-deferred Unlock of the same
// class in the same body, or to the end of the body (deferred Unlock, or
// none). That over-approximates branchy early-unlock code toward more held
// time, which can only add edges — the right bias for a potential-deadlock
// reporter whose cycles are then human-reviewed.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the lock-acquisition order over static calls " +
		"(potential ABBA deadlocks) with a witness chain, and interface or " +
		"function-value calls made while a lock is held",
	ScopeDoc:   "all packages (whole-program)",
	RunProgram: runLockOrder,
}

// lockClass identifies one lock by declaration, not instance.
type lockClass struct {
	// key is the deterministic identity: pkgpath.Type.field or
	// pkgpath.var (or pkgpath.func.var for a local mutex).
	key string
	// name renders the class in messages, with the short package name.
	name string
}

// lockEvent is one Lock/Unlock call in a function body.
type lockEvent struct {
	class    lockClass
	pos      token.Pos
	acquire  bool // Lock/RLock
	deferred bool // inside a defer statement
}

// lockCall is one call a body makes on its own goroutine.
type lockCall struct {
	pos token.Pos
	// callee is the resolved body; nil for a dynamic call.
	callee *ast.BlockStmt
	// name renders the target for messages: the callee's full name,
	// "func literal", or the dynamic call's kind and expression.
	name string
}

// lockBody is one function body's lock events and calls in source order,
// nested literals excluded (each is a body of its own).
type lockBody struct {
	events []lockEvent
	calls  []lockCall
	end    token.Pos
}

// lockEdge is one "to acquired while from is held" observation.
type lockEdge struct {
	from, to lockClass
	pos      token.Pos // the acquisition (or mediating call) site
	via      string    // "" for direct nesting, else the callee's name
}

// runLockOrder builds the lock-acquisition graph and reports its cycles,
// plus every dynamic call made while a lock is held.
func runLockOrder(p *ProgramPass) {
	c := &lockCollector{p: p, bodies: make(map[*ast.BlockStmt]*lockBody),
		reach: make(map[*ast.BlockStmt]lockReach)}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					c.collect(pkg, fd.Body, fd.Name.Name)
				}
			}
		}
	}

	edges := make(map[[2]string]*lockEdge)
	addEdge := func(e lockEdge) {
		k := [2]string{e.from.key, e.to.key}
		if _, ok := edges[k]; !ok {
			edges[k] = &e
		}
	}
	for _, body := range c.order {
		lb := c.bodies[body]
		reported := make(map[token.Pos]bool)
		for i, a := range lb.events {
			if !a.acquire {
				continue
			}
			end := heldEnd(lb.events, i, lb.end)
			// Direct nesting: a different class acquired inside the
			// interval. Same-class direct nesting is skipped — it is
			// usually two sibling instances (shards), not recursion.
			for j, b := range lb.events {
				if j == i || !b.acquire || b.pos <= a.pos || b.pos >= end {
					continue
				}
				if b.class.key != a.class.key {
					addEdge(lockEdge{from: a.class, to: b.class, pos: b.pos})
				}
			}
			// Call-mediated: everything a callee (transitively) acquires
			// is acquired while a is held.
			for _, call := range lb.calls {
				if call.pos <= a.pos || call.pos >= end {
					continue
				}
				var r lockReach
				if call.callee != nil {
					r = c.reachOf(call.callee)
				}
				for _, cls := range r.classes {
					addEdge(lockEdge{from: a.class, to: cls, pos: call.pos, via: call.name})
				}
				if reported[call.pos] {
					continue
				}
				const advice = "its target, and the locks it takes, are chosen at run time; " +
					"call it after unlocking or call a concrete function"
				switch {
				case call.callee == nil:
					p.Reportf(call.pos, "call through %s made while %s is held: %s",
						call.name, a.class.name, advice)
				case r.dynamic != nil:
					pos := p.Fset.Position(r.dynamic.pos)
					p.Reportf(call.pos, "call to %s made while %s is held reaches a call through %s at %s:%d: %s",
						call.name, a.class.name, r.dynamic.name, pos.Filename, pos.Line, advice)
				default:
					continue
				}
				reported[call.pos] = true
			}
		}
	}

	reportLockCycles(p, edges)
}

// heldEnd returns the end of the held interval opened by evs[i]: the first
// following non-deferred release of the same class, or bodyEnd.
func heldEnd(evs []lockEvent, i int, bodyEnd token.Pos) token.Pos {
	a := evs[i]
	for _, e := range evs[i+1:] {
		if !e.acquire && !e.deferred && e.class.key == a.class.key && e.pos > a.pos {
			return e.pos
		}
	}
	return bodyEnd
}

// lockCollector gathers every body's events and calls.
type lockCollector struct {
	p      *ProgramPass
	bodies map[*ast.BlockStmt]*lockBody
	// order is the deterministic visiting order: packages by path, then
	// source order, each literal after its enclosing body.
	order []*ast.BlockStmt
	reach map[*ast.BlockStmt]lockReach // memo for reachOf
}

// collect records one body and, as bodies of their own, the literals it
// contains. funcName qualifies local mutex classes.
func (c *lockCollector) collect(pkg *Package, body *ast.BlockStmt, funcName string) {
	lb := &lockBody{end: body.End()}
	c.bodies[body] = lb
	c.order = append(c.order, body)
	deferred := make(map[*ast.CallExpr]bool)
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			c.collect(pkg, st.Body, funcName)
			return false
		case *ast.DeferStmt:
			deferred[st.Call] = true
		case *ast.GoStmt:
			// The spawned call runs elsewhere; its arguments are
			// evaluated here and are visited as children.
			spawned[st.Call] = true
		case *ast.CallExpr:
			if spawned[st] {
				return true
			}
			if ev, ok := lockEventOf(pkg, st, funcName); ok {
				ev.deferred = deferred[st]
				lb.events = append(lb.events, ev)
			} else if call, ok := c.call(pkg.Info, st); ok {
				lb.calls = append(lb.calls, call)
			}
		}
		return true
	})
	sort.SliceStable(lb.events, func(i, j int) bool { return lb.events[i].pos < lb.events[j].pos })
}

// call classifies one call site: a literal invoked in place or a static
// callee with a loaded body is followed, a dynamic call is recorded with
// no callee, and anything else (built-ins, conversions, functions outside
// the loaded packages) is dropped.
func (c *lockCollector) call(info *types.Info, call *ast.CallExpr) (lockCall, bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lockCall{pos: call.Pos(), callee: lit.Body, name: "func literal"}, true
	}
	if fn := staticCallee(info, call); fn != nil {
		d, ok := c.p.funcs.decl(fn)
		if !ok {
			return lockCall{}, false
		}
		return lockCall{pos: call.Pos(), callee: d.Body, name: fn.FullName()}, true
	}
	if !dynamicCall(info, call) {
		return lockCall{}, false
	}
	name := "function value " + types.ExprString(call.Fun)
	if fn := calleeFunc(info, call); fn != nil {
		name = "interface method " + fn.FullName()
	}
	return lockCall{pos: call.Pos(), name: name}, true
}

// lockReach is what a body does, transitively over static calls: the lock
// classes it acquires and the first dynamic call it makes, if any.
type lockReach struct {
	classes []lockClass
	dynamic *lockCall
}

// reachOf walks the static calls from body, in source order.
func (c *lockCollector) reachOf(body *ast.BlockStmt) lockReach {
	if r, ok := c.reach[body]; ok {
		return r
	}
	var r lockReach
	seen := make(map[string]bool)
	visited := make(map[*ast.BlockStmt]bool)
	var walk func(b *ast.BlockStmt)
	walk = func(b *ast.BlockStmt) {
		lb := c.bodies[b]
		if visited[b] || lb == nil {
			return
		}
		visited[b] = true
		for _, e := range lb.events {
			if e.acquire && !seen[e.class.key] {
				seen[e.class.key] = true
				r.classes = append(r.classes, e.class)
			}
		}
		for i, call := range lb.calls {
			if call.callee == nil {
				if r.dynamic == nil {
					r.dynamic = &lb.calls[i]
				}
				continue
			}
			walk(call.callee)
		}
	}
	walk(body)
	sort.Slice(r.classes, func(i, j int) bool { return r.classes[i].key < r.classes[j].key })
	c.reach[body] = r
	return r
}

// syncLockMethod reports whether call invokes (R)Lock/(R)Unlock on a
// sync.Mutex or sync.RWMutex, and whether it acquires.
func syncLockMethod(info *types.Info, call *ast.CallExpr) (sel *ast.SelectorExpr, acquire, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return nil, false, false
	}
	fn, fnOK := info.Uses[sel.Sel].(*types.Func)
	if !fnOK || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel, true, true
	case "Unlock", "RUnlock":
		return sel, false, true
	}
	return nil, false, false
}

// lockEventOf classifies one call as a lock event and derives its class.
func lockEventOf(pkg *Package, call *ast.CallExpr, funcName string) (lockEvent, bool) {
	sel, acquire, ok := syncLockMethod(pkg.Info, call)
	if !ok {
		return lockEvent{}, false
	}
	class, ok := classOf(pkg, sel, funcName)
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{class: class, pos: call.Pos(), acquire: acquire}, true
}

// classOf derives the lock class of a (R)Lock/(R)Unlock call's receiver:
// the owning named type plus field name for struct fields (including a
// promoted embedded mutex), the package plus variable name otherwise.
func classOf(pkg *Package, fun *ast.SelectorExpr, funcName string) (lockClass, bool) {
	switch recv := ast.Unparen(fun.X).(type) {
	case *ast.SelectorExpr:
		// s.mu.Lock(): identify the field via its selection.
		if s, ok := pkg.Info.Selections[recv]; ok {
			if named := namedOf(s.Recv()); named != nil {
				return fieldClass(named, recv.Sel.Name), true
			}
		}
		// pkgname.mu.Lock(): a package-level mutex accessed qualified.
		if v, ok := pkg.Info.Uses[recv.Sel].(*types.Var); ok {
			return varClass(v, funcName), true
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[recv]
		if obj == nil {
			obj = pkg.Info.Defs[recv]
		}
		if v, ok := obj.(*types.Var); ok {
			return varClass(v, funcName), true
		}
	default:
		// s.Lock() with an embedded mutex surfaces as a selection on fun
		// itself; handled below.
	}
	// Promoted method on an embedded mutex: s.Lock().
	if s, ok := pkg.Info.Selections[fun]; ok {
		if named := namedOf(s.Recv()); named != nil {
			muName := "Mutex"
			if strings.Contains(s.Obj().Type().String(), "RWMutex") {
				muName = "RWMutex"
			}
			return fieldClass(named, muName), true
		}
	}
	return lockClass{}, false
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldClass renders a struct-field lock class.
func fieldClass(named *types.Named, field string) lockClass {
	obj := named.Obj()
	pkgPath, pkgName := "", ""
	if obj.Pkg() != nil {
		pkgPath, pkgName = obj.Pkg().Path(), obj.Pkg().Name()
	}
	return lockClass{
		key:  pkgPath + "." + obj.Name() + "." + field,
		name: pkgName + "." + obj.Name() + "." + field,
	}
}

// varClass renders a variable lock class; local mutexes are qualified by
// their function so two functions' locals never alias.
func varClass(v *types.Var, funcName string) lockClass {
	pkgPath, pkgName := "", ""
	if v.Pkg() != nil {
		pkgPath, pkgName = v.Pkg().Path(), v.Pkg().Name()
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return lockClass{key: pkgPath + "." + v.Name(), name: pkgName + "." + v.Name()}
	}
	return lockClass{
		key:  pkgPath + "." + funcName + "." + v.Name(),
		name: pkgName + "." + funcName + "." + v.Name(),
	}
}

// reportLockCycles finds the strongly connected components of the lock
// graph and reports each cycle once, deterministically, with one witness
// per edge.
func reportLockCycles(p *ProgramPass, edges map[[2]string]*lockEdge) {
	succ := make(map[string][]string)
	classes := make(map[string]bool)
	for k := range edges {
		succ[k[0]] = append(succ[k[0]], k[1])
		classes[k[0]] = true
		classes[k[1]] = true
	}
	for _, s := range succ {
		sort.Strings(s)
	}
	var order []string
	for c := range classes {
		order = append(order, c)
	}
	sort.Strings(order)

	for _, comp := range lockSCCs(order, succ) {
		selfLoop := len(comp) == 1 && edges[[2]string{comp[0], comp[0]}] != nil
		if len(comp) < 2 && !selfLoop {
			continue
		}
		reportOneCycle(p, comp, edges, succ)
	}
}

// lockSCCs is Tarjan over the (tiny) lock graph, deterministic via the
// pre-sorted vertex and successor orders; each component's members are
// sorted.
func lockSCCs(order []string, succ map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, v := range order {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return comps
}

// reportOneCycle walks one cycle through the component, starting from its
// smallest class, and emits a single finding whose message carries every
// edge's witness.
func reportOneCycle(p *ProgramPass, comp []string, edges map[[2]string]*lockEdge, succ map[string][]string) {
	inComp := make(map[string]bool, len(comp))
	for _, c := range comp {
		inComp[c] = true
	}
	start := comp[0]
	path := []string{start}
	cur := start
	visited := map[string]bool{start: true}
	for {
		next := ""
		for _, w := range succ[cur] {
			if w == start && len(path) > 1 || inComp[w] && !visited[w] {
				next = w
				break
			}
		}
		if next == "" {
			// Self-loop component.
			next = start
		}
		path = append(path, next)
		if next == start {
			break
		}
		visited[next] = true
		cur = next
	}

	var names []string
	var witnesses []string
	var firstPos token.Pos
	for i := 0; i+1 < len(path); i++ {
		e := edges[[2]string{path[i], path[i+1]}]
		if e == nil {
			continue
		}
		if firstPos == token.NoPos {
			firstPos = e.pos
		}
		names = append(names, e.from.name)
		pos := p.Fset.Position(e.pos)
		w := fmt.Sprintf("%s before %s at %s:%d", e.from.name, e.to.name,
			pos.Filename, pos.Line)
		if e.via != "" {
			w += fmt.Sprintf(" (via call to %s)", e.via)
		}
		witnesses = append(witnesses, w)
	}
	if len(witnesses) == 0 {
		return
	}
	names = append(names, names[0])
	p.Reportf(firstPos,
		"potential deadlock: lock-order cycle %s; %s",
		strings.Join(names, " -> "), strings.Join(witnesses, "; "))
}
