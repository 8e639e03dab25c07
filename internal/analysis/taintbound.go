package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TaintBound tracks request-derived values through the serving tier: any
// value read off a wire-request struct (the configured TaintSources,
// `internal/serve/api` request types by default) is tainted, and tainted
// values must not reach a resource bound — a context timeout, a make()
// size, a loop bound, or a solver Options field — without first passing a
// recognized clamp or validator. A hostile tenant controls every byte of
// those structs; an unclamped `req.TimeoutMS` is a tenant-chosen deadline
// and an unclamped `req.MaxIterations` is a tenant-chosen CPU budget.
//
// Taint propagates through assignments, conversions, arithmetic,
// len/cap, and composite literals, following statements in source order
// (function literals are walked inline — closures in the serving tier
// run on the request path). Taint is cleared by:
//
//   - assigning a clean value (which is how the module's clamp idiom
//     `if d > max { d = max }` is recognized: the true branch overwrites
//     the tainted variable with the cap);
//   - calling a configured sanitizer (Options.Validate, api.BuildOptions,
//     api.BuildSchema by default) — the result is clean and a method
//     receiver is scrubbed;
//   - the min/max builtins (clamping against a constant cap);
//   - any other call's result (callees are trusted to bound what they
//     return; the sweep runs the analyzer over every serving package, so
//     a callee that forwards taint into a sink is caught at its own body).
//
// Sinks: context.WithTimeout/WithDeadline duration arguments, make()
// length/capacity arguments, for-loop conditions, and assignments or
// composite literals writing into the configured TaintBoundTypes
// (sia/internal/core.Options by default). Escape with `// taint:
// <reason>` on the offending statement when the flow is bounded by
// something the analyzer cannot see (an http.MaxBytesReader cap upstream
// of a decoded slice, for example).
func TaintBound(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "taint-bound",
		Doc:  "request-derived values must be clamped/validated before becoming timeouts, budgets, or allocation sizes",
		Run: func(pass *Pass) {
			if !stringIn(pass.Pkg.Path, cfg.TaintPackages) {
				return
			}
			for _, file := range pass.Pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					w := &taintWalker{
						pass:     pass,
						tainted:  map[types.Object]bool{},
						reported: map[token.Pos]bool{},
					}
					w.walkStmt(fn.Body)
				}
			}
		},
	}
}

// taintWalker carries the per-function taint state. One walker runs per
// top-level function; nested literals share it.
type taintWalker struct {
	pass     *Pass
	tainted  map[types.Object]bool
	reported map[token.Pos]bool
}

func (w *taintWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	if w.pass.Pkg.commentedWith(pos, "taint:") {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

// walkStmt processes one statement: sink checks on its expressions, then
// taint-set updates, then substatements in source order. Loop bodies are
// walked twice so taint introduced late in the body reaches uses early in
// the next iteration.
func (w *taintWalker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range x.List {
			w.walkStmt(sub)
		}
	case *ast.ExprStmt:
		w.checkExpr(x.X)
		w.scrubSanitizedReceivers(x.X)
	case *ast.AssignStmt:
		w.walkAssign(x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						t := false
						if i < len(vs.Values) {
							w.checkExpr(vs.Values[i])
							t = w.exprTainted(vs.Values[i])
						}
						w.setIdentTaint(name, t)
					}
				}
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.checkExpr(x.Cond)
		w.walkStmt(x.Body)
		if x.Else != nil {
			w.walkStmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		if x.Cond != nil {
			w.checkExpr(x.Cond)
			if w.exprTainted(x.Cond) {
				w.report(x.Pos(), "loop bound derived from request input without a clamp; cap it or justify with // taint:")
			}
		}
		for i := 0; i < 2; i++ {
			w.walkStmt(x.Body)
			if x.Post != nil {
				w.walkStmt(x.Post)
			}
		}
	case *ast.RangeStmt:
		// Ranging over request data is bounded by the data already
		// decoded; the key/value views inherit its taint.
		w.checkExpr(x.X)
		t := w.exprTainted(x.X)
		if x.Key != nil {
			if id, ok := x.Key.(*ast.Ident); ok {
				w.setIdentTaint(id, false) // indexes are bounded
			}
		}
		if x.Value != nil {
			if id, ok := x.Value.(*ast.Ident); ok {
				w.setIdentTaint(id, t)
			}
		}
		for i := 0; i < 2; i++ {
			w.walkStmt(x.Body)
		}
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		if x.Tag != nil {
			w.checkExpr(x.Tag)
		}
		w.walkStmt(x.Body)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkStmt(x.Body)
	case *ast.CaseClause:
		for _, e := range x.List {
			w.checkExpr(e)
		}
		for _, sub := range x.Body {
			w.walkStmt(sub)
		}
	case *ast.SelectStmt:
		w.walkStmt(x.Body)
	case *ast.CommClause:
		if x.Comm != nil {
			w.walkStmt(x.Comm)
		}
		for _, sub := range x.Body {
			w.walkStmt(sub)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.checkExpr(e)
		}
	case *ast.GoStmt:
		w.checkExpr(x.Call)
	case *ast.DeferStmt:
		w.checkExpr(x.Call)
	case *ast.SendStmt:
		w.checkExpr(x.Value)
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt)
	case *ast.IncDecStmt:
		// x++ keeps x's taint.
	}
}

// walkAssign checks RHS sinks, then moves taint across the assignment:
// each LHS target becomes tainted iff its RHS is. Writing a tainted value
// into a bound-type field is itself a sink.
func (w *taintWalker) walkAssign(x *ast.AssignStmt) {
	for _, rhs := range x.Rhs {
		w.checkExpr(rhs)
	}
	if len(x.Lhs) == len(x.Rhs) {
		for i, lhs := range x.Lhs {
			t := w.exprTainted(x.Rhs[i])
			w.assignTo(lhs, t, x.Rhs[i])
		}
		return
	}
	// Multi-value form (call, comma-ok): call results are clean.
	for _, lhs := range x.Lhs {
		w.assignTo(lhs, false, nil)
	}
}

// assignTo records taint for one assignment target and fires the
// bound-type sink when a tainted value lands in a protected field.
func (w *taintWalker) assignTo(lhs ast.Expr, t bool, rhs ast.Expr) {
	switch target := lhs.(type) {
	case *ast.Ident:
		w.setIdentTaint(target, t)
	case *ast.SelectorExpr:
		if t && w.isBoundType(w.pass.Pkg.Info.TypeOf(target.X)) {
			w.report(lhs.Pos(),
				"request-derived value assigned to %s field %s without validation; route it through Options.Validate/BuildOptions or justify with // taint:",
				typeQualName(w.pass.Pkg.Info.TypeOf(target.X)), target.Sel.Name)
		}
		// Field objects are shared by every value of the type, so taint
		// sticks to the root variable instead: one tainted field taints
		// reads through the whole struct until a sanitizer scrubs it.
		if t {
			if id, ok := rootIdent(target.X); ok {
				w.setIdentTaint(id, true)
			}
		}
	}
}

func (w *taintWalker) setIdentTaint(id *ast.Ident, t bool) {
	if id.Name == "_" {
		return
	}
	if obj := w.pass.Pkg.Info.ObjectOf(id); obj != nil {
		w.tainted[obj] = t
	}
}

// checkExpr recursively inspects an expression for sink calls, bound-type
// composite literals, and nested function literals (walked inline with
// the shared taint set).
func (w *taintWalker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkStmt(x.Body)
			return false
		case *ast.CallExpr:
			w.checkCallSinks(x)
		case *ast.CompositeLit:
			if w.isBoundType(w.pass.Pkg.Info.TypeOf(x)) {
				for _, elt := range x.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if w.exprTainted(v) {
						w.report(v.Pos(),
							"request-derived value in %s literal without validation; route it through Options.Validate/BuildOptions or justify with // taint:",
							typeQualName(w.pass.Pkg.Info.TypeOf(x)))
					}
				}
			}
		}
		return true
	})
}

// checkCallSinks fires the call-shaped sinks: tenant-chosen deadlines and
// allocation sizes.
func (w *taintWalker) checkCallSinks(call *ast.CallExpr) {
	if w.isConversion(call) {
		return
	}
	switch fn := calleeFunc(w.pass.Pkg, call); {
	case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline"):
		if len(call.Args) == 2 && w.exprTainted(call.Args[1]) {
			w.report(call.Pos(),
				"context.%s deadline derived from request input without a clamp; cap it against a server maximum or justify with // taint:",
				fn.Name())
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltinIdent(w.pass.Pkg, id) {
		for _, arg := range call.Args[1:] {
			if w.exprTainted(arg) {
				w.report(call.Pos(),
					"make() size derived from request input without a clamp; cap it or justify with // taint:")
			}
		}
	}
}

// scrubSanitizedReceivers handles the statement form `x.Validate()`: a
// sanitizer called for effect cleans its receiver chain.
func (w *taintWalker) scrubSanitizedReceivers(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !stringIn(sel.Sel.Name, w.pass.Cfg.TaintSanitizers) {
		return
	}
	if id, ok := rootIdent(sel.X); ok {
		w.setIdentTaint(id, false)
	}
}

// exprTainted decides whether evaluating e can yield a request-derived
// value under the current taint set.
func (w *taintWalker) exprTainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.pass.Pkg.Info.ObjectOf(x)
		return obj != nil && w.tainted[obj]
	case *ast.SelectorExpr:
		if w.isSourceType(w.pass.Pkg.Info.TypeOf(x.X)) {
			return true
		}
		return w.exprTainted(x.X)
	case *ast.ParenExpr:
		return w.exprTainted(x.X)
	case *ast.StarExpr:
		return w.exprTainted(x.X)
	case *ast.UnaryExpr:
		return w.exprTainted(x.X)
	case *ast.BinaryExpr:
		return w.exprTainted(x.X) || w.exprTainted(x.Y)
	case *ast.IndexExpr:
		return w.exprTainted(x.X)
	case *ast.SliceExpr:
		return w.exprTainted(x.X)
	case *ast.TypeAssertExpr:
		return w.exprTainted(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if w.exprTainted(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return w.callTainted(x)
	}
	return false
}

// callTainted classifies a call in value position: conversions and
// len/cap propagate their operand's taint; sanitizers and min/max clamp;
// every other callee's result is trusted clean (the sweep analyzes the
// callee's own body).
func (w *taintWalker) callTainted(call *ast.CallExpr) bool {
	if w.isConversion(call) && len(call.Args) == 1 {
		return w.exprTainted(call.Args[0])
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "len", "cap":
			if isBuiltinIdent(w.pass.Pkg, fun) && len(call.Args) == 1 {
				return w.exprTainted(call.Args[0])
			}
		case "min", "max":
			if isBuiltinIdent(w.pass.Pkg, fun) {
				return false
			}
		}
		if stringIn(fun.Name, w.pass.Cfg.TaintSanitizers) {
			return false
		}
	case *ast.SelectorExpr:
		if stringIn(fun.Sel.Name, w.pass.Cfg.TaintSanitizers) {
			return false
		}
	}
	return false
}

// isConversion reports whether call is a type conversion T(x).
func (w *taintWalker) isConversion(call *ast.CallExpr) bool {
	tv, ok := w.pass.Pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// isSourceType reports whether t (possibly behind pointers) is one of the
// configured taint-source structs.
func (w *taintWalker) isSourceType(t types.Type) bool {
	return stringIn(typeQualName(t), w.pass.Cfg.TaintSources)
}

// isBoundType reports whether t is one of the configured protected types.
func (w *taintWalker) isBoundType(t types.Type) bool {
	return stringIn(typeQualName(t), w.pass.Cfg.TaintBoundTypes)
}

// typeQualName renders a (possibly pointered) named type as
// "import/path.Name"; "" for everything else.
func typeQualName(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeFunc resolves a call's target to a *types.Func when the callee is
// a named function or method; nil for builtins, conversions, and values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isBuiltinIdent reports whether id resolves to a language builtin (and
// is not shadowed by a user declaration).
func isBuiltinIdent(pkg *Package, id *ast.Ident) bool {
	obj := pkg.Info.ObjectOf(id)
	if obj == nil {
		return true // untracked bare identifier in call position: builtin
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// rootIdent walks a selector/star/paren chain to its base identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
