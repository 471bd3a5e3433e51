package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// LockGuard enforces `// guarded by <mu>` field annotations: a field so
// annotated may only be read or written in a statement region where the
// named sibling mutex is held (Lock/RLock earlier in the enclosing function
// without an intervening release; deferred unlocks keep the lock held to
// function end). Writes under an RWMutex require the exclusive lock; reads
// accept RLock. Functions whose names end in "Locked" are callee-side
// conventions — the caller holds the lock — and are exempt; in turn, a call
// x.fooLocked(…) outside such a function must hold one of the mutexes that
// guard fields of x's type, in either mode.
//
// Check: lockguard.
var LockGuard = &Analyzer{
	Name:   "lockguard",
	Checks: []string{"lockguard"},
	Run:    runLockGuard,
}

// guardedRe matches the annotation inside a field's doc or trailing comment.
var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				return true
			}
			w := &lockWalker{pass: pass, guards: guards, held: map[string]lockKind{}}
			w.walkStmts(fd.Body.List)
			return true
		})
	}
}

// collectGuards finds every `guarded by` annotation on struct fields in the
// package: per struct type, a map from field name to the sibling mutex field
// guarding it.
func collectGuards(pass *Pass) map[types.Object]map[string]string {
	out := map[types.Object]map[string]string{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var gi map[string]string
			fieldNames := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				ann := ""
				if field.Doc != nil {
					ann += field.Doc.Text() + "\n"
				}
				if field.Comment != nil {
					ann += field.Comment.Text()
				}
				m := guardedRe.FindStringSubmatch(ann)
				if m == nil {
					continue
				}
				mu := m[1]
				if !fieldNames[mu] {
					pass.Reportf(field.Pos(), "lockguard",
						"guarded-by annotation names %q, which is not a field of %s", mu, ts.Name.Name)
					continue
				}
				if gi == nil {
					gi = map[string]string{}
				}
				for _, name := range field.Names {
					gi[name.Name] = mu
				}
			}
			if gi != nil {
				if obj := pass.Pkg.Info.Defs[ts.Name]; obj != nil {
					out[obj] = gi
				}
			}
			return true
		})
	}
	return out
}

type lockKind int

const (
	lockNone lockKind = iota
	lockShared
	lockExclusive
)

// lockWalker tracks, per mutex expression ("recv.mu" rendered as source
// text), whether the lock is currently held while walking a function body in
// statement order. Branch bodies inherit the entry state; state changes made
// inside a branch do not leak past it unless every branch agrees (kept
// conservative: they don't).
type lockWalker struct {
	pass   *Pass
	guards map[types.Object]map[string]string
	held   map[string]lockKind
}

func (w *lockWalker) fork() *lockWalker {
	c := &lockWalker{pass: w.pass, guards: w.guards, held: map[string]lockKind{}}
	for k, v := range w.held {
		c.held[k] = v
	}
	return c
}

func (w *lockWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.applyLockCall(call) {
			return
		}
		w.checkExpr(s.X)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the walk; a
		// deferred lock (rare) is ignored.
		if w.isUnlock(s.Call) {
			return
		}
		w.checkExpr(s.Call)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs)
		}
		for _, lhs := range s.Lhs {
			w.checkWrite(lhs)
		}
	case *ast.IncDecStmt:
		w.checkWrite(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.checkExpr(s.Cond)
		w.fork().walkStmts(s.Body.List)
		if s.Else != nil {
			w.fork().walkStmt(s.Else)
		}
	case *ast.ForStmt:
		f := w.fork()
		if s.Init != nil {
			f.walkStmt(s.Init)
		}
		if s.Cond != nil {
			f.checkExpr(s.Cond)
		}
		f.walkStmts(s.Body.List)
		if s.Post != nil {
			f.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		f := w.fork()
		f.checkExpr(s.X)
		f.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		f := w.fork()
		if s.Init != nil {
			f.walkStmt(s.Init)
		}
		if s.Tag != nil {
			f.checkExpr(s.Tag)
		}
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				f.fork().walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		f := w.fork()
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				f.fork().walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok {
				w.fork().walkStmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		w.fork().walkStmts(s.List)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.GoStmt:
		// The goroutine body runs later: walk it with no locks held.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fresh := &lockWalker{pass: w.pass, guards: w.guards, held: map[string]lockKind{}}
			fresh.walkStmts(fl.Body.List)
		} else {
			w.checkExpr(s.Call)
		}
	case *ast.SendStmt:
		w.checkExpr(s.Chan)
		w.checkExpr(s.Value)
	case *ast.DeclStmt:
		w.checkExpr(s)
	}
}

// applyLockCall recognises x.mu.Lock()/RLock()/Unlock()/RUnlock() and
// updates the held set. Returns true if the call was a lock operation.
func (w *lockWalker) applyLockCall(call *ast.CallExpr) bool {
	key, op, ok := w.lockOp(call)
	if !ok {
		return false
	}
	switch op {
	case "Lock":
		w.held[key] = lockExclusive
	case "RLock":
		if w.held[key] != lockExclusive {
			w.held[key] = lockShared
		}
	case "Unlock", "RUnlock":
		delete(w.held, key)
	}
	return true
}

// isUnlock reports whether call is an Unlock/RUnlock on some mutex.
func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	_, op, ok := w.lockOp(call)
	return ok && (op == "Unlock" || op == "RUnlock")
}

// lockOp decomposes x.mu.Op() into a held-set key ("x.mu") and the
// operation name, requiring mu to be a sync.Mutex/RWMutex (or pointer).
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return "", "", false
	}
	if !isMutexType(w.pass.TypeOf(sel.X)) {
		return "", "", false
	}
	return types.ExprString(sel.X), op, true
}

func isMutexType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// checkWrite validates the LHS of an assignment against the guard table,
// then descends into any nested reads (index expressions etc.).
func (w *lockWalker) checkWrite(e ast.Expr) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		w.checkFieldAccess(sel, true)
		w.checkExpr(sel.X)
		return
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		// m[k] = v writes through the map/slice read from its holder: the
		// holder field access itself is the guarded read.
		w.checkExpr(ix.X)
		w.checkExpr(ix.Index)
		return
	}
	w.checkExpr(e)
}

// checkExpr walks an expression reporting unguarded reads. Nested function
// literals (timer callbacks, handlers) run later, usually on another
// goroutine: their bodies are walked with an empty held set, and their
// Lock/Unlock calls do not leak into the enclosing function's state.
func (w *lockWalker) checkExpr(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			fresh := &lockWalker{pass: w.pass, guards: w.guards, held: map[string]lockKind{}}
			fresh.walkStmts(m.Body.List)
			return false
		case *ast.CallExpr:
			if w.applyLockCall(m) {
				return false
			}
			w.checkLockedCall(m)
		case *ast.SelectorExpr:
			w.checkFieldAccess(m, false)
		}
		return true
	})
}

// checkFieldAccess reports sel (x.field) when field is guarded and x's
// mutex is not held appropriately.
func (w *lockWalker) checkFieldAccess(sel *ast.SelectorExpr, write bool) {
	selection, ok := w.pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	recv := namedType(selection.Recv())
	if recv == nil {
		return
	}
	gi := w.guards[recv.Obj()]
	if gi == nil {
		return
	}
	mu, guarded := gi[sel.Sel.Name]
	if !guarded {
		return
	}
	key := types.ExprString(sel.X) + "." + mu
	kind := w.held[key]
	if kind == lockExclusive || (!write && kind == lockShared) {
		return
	}
	verb := "read"
	if write {
		verb = "written"
	}
	w.pass.Reportf(sel.Pos(), "lockguard",
		"field %s.%s is %s without holding %s (declared `guarded by %s`)",
		recv.Obj().Name(), sel.Sel.Name, verb, key, mu)
}

// checkLockedCall reports a call x.fooLocked(…) made while none of the
// mutexes guarding x's fields is held. A method of a type with no guarded
// field names no mutex, and is not checked.
func (w *lockWalker) checkLockedCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return
	}
	selection, ok := w.pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := namedType(selection.Recv())
	if recv == nil || w.guards[recv.Obj()] == nil {
		return
	}
	var mus []string
	for _, mu := range w.guards[recv.Obj()] {
		key := types.ExprString(sel.X) + "." + mu
		if w.held[key] != lockNone {
			return
		}
		mus = append(mus, key)
	}
	slices.Sort(mus)
	mus = slices.Compact(mus)
	w.pass.Reportf(sel.Pos(), "lockguard",
		"%s is called without holding %s (its name says the caller holds the lock)",
		types.ExprString(sel), strings.Join(mus, " or "))
}
