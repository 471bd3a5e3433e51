package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// PoolDiscipline proves the wire buffer pool stays balanced and borrowed
// delivery payloads are not retained.
//
// Checks:
//
//	pooldiscipline — every wire.GetBuffer result must reach wire.PutBuffer
//	                 on all control-flow paths of the acquiring function
//	                 (directly or via defer). Returning a pooled buffer,
//	                 storing it into a field, map, slice or channel, or
//	                 capturing it in a closure is an ownership transfer and
//	                 must carry //lint:allow pooldiscipline <reason>.
//	poolretain     — inside a delivery handler (func(from string, payload
//	                 []byte)) installed with SetHandler, as a literal or as
//	                 a function or method value of the same package, the
//	                 payload is borrowed from the endpoint (a netsim
//	                 delivery buffer, a TCP frame buffer): it may be read
//	                 and copied, but aliasing it into state that outlives
//	                 the handler (field/map/slice stores, non-spread
//	                 appends, closure captures) is a retention bug.
var PoolDiscipline = &Analyzer{
	Name:   "pooldiscipline",
	Checks: []string{"pooldiscipline", "poolretain"},
	Run:    runPoolDiscipline,
}

func runPoolDiscipline(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolBalance(pass, n.Body)
				}
			case *ast.FuncLit:
				checkPoolBalance(pass, n.Body)
				return true
			case *ast.CallExpr:
				checkHandlerRetention(pass, n)
			}
			return true
		})
	}
}

// isWireFunc reports whether the call invokes the named function of the wire
// package (matched by import-path suffix, so fixtures importing the real
// package and the package's own internal calls both resolve).
func isWireFunc(pass *Pass, call *ast.CallExpr, name string) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	return strings.HasSuffix(pkg.Path(), "internal/wire") || pkg.Path() == "wire"
}

// buffer ownership states. condition-merged states fold live+released into
// partial, which is still a finding at exit.
type bufState int

const (
	bufLive bufState = iota
	bufReleased
	bufPartial // released on some paths only
)

// bufTracker walks one function body tracking pooled-buffer ownership.
type bufTracker struct {
	pass *Pass
	// state is the current ownership per buffer object; buffers are removed
	// once reported so a single leak reports once.
	state map[types.Object]bufState
	// origin remembers the GetBuffer call position per buffer for reporting.
	origin map[types.Object]token.Pos
}

func checkPoolBalance(pass *Pass, body *ast.BlockStmt) {
	t := &bufTracker{
		pass:   pass,
		state:  map[types.Object]bufState{},
		origin: map[types.Object]token.Pos{},
	}
	terminated := t.walkStmts(body.List)
	if !terminated {
		t.atExit(body.End())
	}
}

// atExit reports every buffer not (always) released when control leaves the
// function.
func (t *bufTracker) atExit(pos token.Pos) {
	for obj, st := range t.state {
		switch st {
		case bufLive:
			t.pass.Reportf(t.origin[obj], "pooldiscipline",
				"wire.GetBuffer result %q is never returned to the pool; call wire.PutBuffer (or defer it)", obj.Name())
		case bufPartial:
			t.pass.Reportf(t.origin[obj], "pooldiscipline",
				"wire.GetBuffer result %q reaches wire.PutBuffer on some paths only; release it on every path", obj.Name())
		}
		delete(t.state, obj)
	}
}

// walkStmts processes a statement list sequentially, returning true if the
// list definitely terminates the enclosing function (return/panic), in which
// case the caller must not run its own exit check.
func (t *bufTracker) walkStmts(list []ast.Stmt) bool {
	for _, s := range list {
		if t.walkStmt(s) {
			return true
		}
	}
	return false
}

func (t *bufTracker) walkStmt(s ast.Stmt) (terminates bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		t.scanEscapes(s)
		for i, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isWireFunc(t.pass, call, "GetBuffer") && i < len(s.Lhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					obj := t.pass.Pkg.Info.Defs[id]
					if obj == nil {
						obj = t.pass.Pkg.Info.Uses[id]
					}
					if obj != nil {
						if st, tracked := t.state[obj]; tracked && st != bufReleased {
							t.pass.Reportf(call.Pos(), "pooldiscipline",
								"wire.GetBuffer overwrites %q while it still owns a pooled buffer", id.Name)
						}
						t.state[obj] = bufLive
						t.origin[obj] = call.Pos()
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if !t.markRelease(call) {
				if isWireFunc(t.pass, call, "GetBuffer") {
					t.pass.Reportf(call.Pos(), "pooldiscipline",
						"wire.GetBuffer result is discarded without reaching wire.PutBuffer")
				}
				t.scanEscapes(s)
			}
		} else {
			t.scanEscapes(s)
		}
	case *ast.DeferStmt:
		if !t.markRelease(s.Call) {
			t.scanEscapes(s)
		}
	case *ast.GoStmt:
		t.scanEscapes(s)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := t.pass.Pkg.Info.Uses[id]; obj != nil {
					if _, tracked := t.state[obj]; tracked {
						t.pass.Reportf(s.Pos(), "pooldiscipline",
							"pooled buffer %q is returned to the caller; annotate the ownership transfer with //lint:allow pooldiscipline <reason> or release before returning", id.Name)
						delete(t.state, obj)
					}
				}
			}
		}
		for obj, st := range t.state {
			if st != bufReleased {
				t.pass.Reportf(s.Pos(), "pooldiscipline",
					"return while pooled buffer %q (from wire.GetBuffer at this function's body) is unreleased on this path", obj.Name())
				t.state[obj] = bufReleased // report once per leaky return chain
			}
		}
		return true
	case *ast.BlockStmt:
		return t.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		thenT, elseT := t.walkBranches(s.Body, s.Else)
		return thenT && elseT
	case *ast.ForStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		t.walkLoopBody(s.Body)
	case *ast.RangeStmt:
		t.walkLoopBody(s.Body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		t.walkCases(s)
	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		t.scanEscapes(s)
	}
	return false
}

// markRelease handles wire.PutBuffer(x): the buffer becomes released whether
// the call is direct or deferred. Reports true when the call was a release.
func (t *bufTracker) markRelease(call *ast.CallExpr) bool {
	if !isWireFunc(t.pass, call, "PutBuffer") || len(call.Args) != 1 {
		return false
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		if obj := t.pass.Pkg.Info.Uses[id]; obj != nil {
			if _, tracked := t.state[obj]; tracked {
				t.state[obj] = bufReleased
			}
		}
	}
	return true
}

// walkBranches evaluates an if/else with forked copies of the state and
// merges: released on both sides stays released, split outcomes become
// partial.
func (t *bufTracker) walkBranches(body *ast.BlockStmt, els ast.Stmt) (thenTerm, elseTerm bool) {
	saved := t.snapshot()
	thenTerm = t.walkStmts(body.List)
	thenState := t.snapshot()

	t.restore(saved)
	if els != nil {
		elseTerm = t.walkStmt(els)
	}
	elseState := t.snapshot()

	t.mergeInto(thenState, thenTerm, elseState, elseTerm)
	return thenTerm, elseTerm
}

// walkCases merges every case body of a switch/select as parallel branches,
// plus the fallthrough no-case path.
func (t *bufTracker) walkCases(s ast.Stmt) {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(list []ast.Stmt) {
		for _, cs := range list {
			switch cs := cs.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, cs.Body)
				if cs.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, cs.Body)
				if cs.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		collect(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		t.walkStmt(s.Assign)
		collect(s.Body.List)
	case *ast.SelectStmt:
		collect(s.Body.List)
	}
	entry := t.snapshot()
	states := []map[types.Object]bufState{}
	terms := []bool{}
	for _, b := range bodies {
		t.restore(entry)
		terms = append(terms, t.walkStmts(b))
		states = append(states, t.snapshot())
	}
	if !hasDefault {
		states = append(states, entry)
		terms = append(terms, false)
	}
	t.mergeAll(states, terms)
}

// walkLoopBody treats the body as optionally executed: a release inside a
// loop is conditional for buffers acquired before the loop, while buffers
// acquired inside the body must be balanced within one iteration.
func (t *bufTracker) walkLoopBody(body *ast.BlockStmt) {
	entry := t.snapshot()
	t.walkStmts(body.List)
	// Buffers acquired inside the loop body must not survive an iteration.
	for obj, st := range t.state {
		if _, existed := entry[obj]; !existed && st != bufReleased {
			t.pass.Reportf(t.origin[obj], "pooldiscipline",
				"wire.GetBuffer result %q can leak across loop iterations; release it before the iteration ends", obj.Name())
			delete(t.state, obj)
			delete(t.origin, obj)
		}
	}
	after := t.snapshot()
	// Zero-iterations path: merge the loop-body effects with the entry state.
	t.mergeInto(after, false, entry, false)
}

func (t *bufTracker) snapshot() map[types.Object]bufState { return maps.Clone(t.state) }

func (t *bufTracker) restore(s map[types.Object]bufState) { t.state = maps.Clone(s) }

func (t *bufTracker) mergeInto(a map[types.Object]bufState, aTerm bool, b map[types.Object]bufState, bTerm bool) {
	t.mergeAll([]map[types.Object]bufState{a, b}, []bool{aTerm, bTerm})
}

// mergeAll joins branch states: terminated branches (they already ran their
// own return accounting) drop out; surviving branches agree or go partial.
func (t *bufTracker) mergeAll(states []map[types.Object]bufState, terms []bool) {
	merged := map[types.Object]bufState{}
	seen := map[types.Object]int{}
	live := 0
	for i, st := range states {
		if terms[i] {
			continue
		}
		live++
		for obj, v := range st {
			if prev, ok := merged[obj]; ok {
				if prev != v {
					merged[obj] = bufPartial
				}
			} else {
				merged[obj] = v
			}
			seen[obj]++
		}
	}
	// A buffer tracked on only some surviving branches (acquired inside one
	// branch) is partial unless released there.
	for obj, n := range seen {
		if n < live && merged[obj] != bufReleased {
			merged[obj] = bufPartial
		}
	}
	if live == 0 {
		merged = map[types.Object]bufState{}
	}
	t.state = merged
}

// scanEscapes reports tracked buffers leaking into places the tracker cannot
// follow: stores into fields, maps, slices or globals, non-release captures
// in closures and goroutines, and sends on channels. Passing a buffer as a
// plain call argument is a borrow and stays untracked.
func (t *bufTracker) scanEscapes(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, rhs := range m.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := t.pass.Pkg.Info.Uses[id]
				if obj == nil {
					continue
				}
				if _, tracked := t.state[obj]; !tracked {
					continue
				}
				if i < len(m.Lhs) {
					if _, plain := m.Lhs[i].(*ast.Ident); !plain {
						t.reportEscape(m.Pos(), obj, "stored outside the function")
					}
				}
			}
		case *ast.SendStmt:
			if id, ok := m.Value.(*ast.Ident); ok {
				if obj := t.pass.Pkg.Info.Uses[id]; obj != nil {
					if _, tracked := t.state[obj]; tracked {
						t.reportEscape(m.Pos(), obj, "sent on a channel")
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(m.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := t.pass.Pkg.Info.Uses[id]; obj != nil {
						if _, tracked := t.state[obj]; tracked {
							t.reportEscape(id.Pos(), obj, "captured by a closure")
						}
					}
				}
				return true
			})
			return false
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				expr := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				if id, ok := expr.(*ast.Ident); ok {
					if obj := t.pass.Pkg.Info.Uses[id]; obj != nil {
						if _, tracked := t.state[obj]; tracked {
							t.reportEscape(id.Pos(), obj, "stored in a composite literal")
						}
					}
				}
			}
		}
		return true
	})
}

func (t *bufTracker) reportEscape(pos token.Pos, obj types.Object, how string) {
	t.pass.Reportf(pos, "pooldiscipline",
		"pooled buffer %q %s; this transfers ownership out of the acquiring function — annotate with //lint:allow pooldiscipline <reason> if intended", obj.Name(), how)
	delete(t.state, obj)
	delete(t.origin, obj)
}

// --- handler retention ---

// checkHandlerRetention inspects the delivery handlers installed by a
// SetHandler call or a Handler conversion: function literals, and functions
// or method values declared in the same package, for aliasing of the
// borrowed payload parameter.
func checkHandlerRetention(pass *Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != "SetHandler" {
			return
		}
	case *ast.Ident:
		if tn, ok := pass.Pkg.Info.Uses[fun].(*types.TypeName); !ok || tn.Name() != "Handler" {
			return
		}
	default:
		return
	}
	for _, a := range call.Args {
		if ftype, body := handlerFunc(pass, a); body != nil {
			checkPayloadAliasing(pass, ftype, body)
		}
	}
}

// handlerFunc returns the signature and body of a handler argument: a
// function literal, or a function or method value whose declaration is in
// the package. Anything else yields a nil body.
func handlerFunc(pass *Pass, arg ast.Expr) (*ast.FuncType, *ast.BlockStmt) {
	var id *ast.Ident
	switch a := arg.(type) {
	case *ast.FuncLit:
		return a.Type, a.Body
	case *ast.Ident:
		id = a
	case *ast.SelectorExpr:
		id = a.Sel
	default:
		return nil, nil
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg.Types {
		return nil, nil
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.Pkg.Info.Defs[fd.Name] == fn.Origin() {
				return fd.Type, fd.Body
			}
		}
	}
	return nil, nil
}

// checkPayloadAliasing flags retention of the handler's []byte payload
// parameter: plain aliasing assignments, element (non-spread) appends,
// composite-literal stores and closure captures. Spread appends
// (append(dst, p...)), copy, string conversion and plain argument passing
// copy or borrow and pass.
func checkPayloadAliasing(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	var payload types.Object
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := pass.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if sl, ok := obj.Type().Underlying().(*types.Slice); ok {
				if basic, ok := sl.Elem().(*types.Basic); ok && basic.Kind() == types.Byte {
					payload = obj
				}
			}
		}
	}
	if payload == nil {
		return
	}
	isPayload := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.Pkg.Info.Uses[id] == payload
	}
	report := func(pos token.Pos, how string) {
		pass.Reportf(pos, "poolretain",
			"%s %s; the payload is borrowed and its buffer is recycled when the handler returns — copy the bytes instead", payload.Name(), how)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isPayload(rhs) {
					// slicing retains too: p[1:] aliases the same array.
					if sl, ok := rhs.(*ast.SliceExpr); !ok || !isPayload(sl.X) {
						continue
					}
				}
				if i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if obj := pass.Pkg.Info.Defs[lhs]; obj != nil {
						continue // fresh local alias: only a problem if it escapes; kept simple
					}
					if obj := pass.Pkg.Info.Uses[lhs]; obj != nil && (obj.Pos() < ftype.Params.Pos() || obj.Pos() >= body.End()) {
						report(n.Pos(), "is assigned to a variable that outlives the handler")
					}
				case *ast.SelectorExpr, *ast.IndexExpr:
					report(n.Pos(), "is stored into a field, map or slice")
				}
			}
		case *ast.CallExpr:
			if isBuiltinAppend(pass, n) && n.Ellipsis == token.NoPos {
				for _, a := range n.Args[1:] {
					if isPayload(a) {
						report(n.Pos(), "is appended by reference")
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				expr := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				if isPayload(expr) {
					report(expr.Pos(), "is stored in a composite literal")
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == payload {
					report(id.Pos(), "is captured by a nested closure")
				}
				return true
			})
			return false
		}
		return true
	})
}
