package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CancelPoll enforces the cancellation contract on the solver and engine
// hot paths: every while-style loop — a for statement with no post clause,
// whose trip count is therefore data-dependent (convergence loops, CEGIS
// rounds, claim loops) — must poll cancellation on every cycle through its
// body, or carry a `// cancel:` comment justifying why it is bounded.
//
// "Polls cancellation" means the cycle passes a statement that does one of:
//
//   - call a configured poll function (checkStop by default);
//   - call a method on a context.Context (ctx.Err(), ctx.Done(), …);
//   - call any function passing a context.Context argument — such a callee
//     is cancellation-aware by the module's own ctx-first convention;
//   - decrement or reassign a budget-named variable.
//
// The check is path-sensitive over the control-flow graph: a poll behind an
// `if` that some iteration can skip does not satisfy it. Counted three-
// clause loops and range loops are exempt — their trip counts are bounded
// by the collection or counter they iterate.
func CancelPoll(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "cancel-poll",
		Doc:  "while-style loops in solver/engine packages must poll cancellation every cycle",
		Run: func(pass *Pass) {
			if !stringIn(pass.Pkg.Path, cfg.CancelPackages) {
				return
			}
			for _, file := range pass.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					var body *ast.BlockStmt
					switch fn := n.(type) {
					case *ast.FuncDecl:
						body = fn.Body
					case *ast.FuncLit:
						body = fn.Body
					default:
						return true
					}
					if body != nil {
						pass.checkCancelLoops(body)
					}
					return true
				})
			}
		},
	}
}

// checkCancelLoops builds the CFG of one function body and checks each of
// its candidate loops. Nested function literals are handled by their own
// CFGs (the ast.Inspect in Run visits them separately), and their
// statements do not leak into this body's blocks.
func (pass *Pass) checkCancelLoops(body *ast.BlockStmt) {
	g := NewCFG(body)
	for _, loop := range g.Loops {
		forStmt, ok := loop.Stmt.(*ast.ForStmt)
		if !ok || forStmt.Post != nil {
			continue // range or counted loop: trip count is bounded
		}
		if pass.Pkg.commentedWith(forStmt.Pos(), "cancel:") {
			continue
		}
		if pass.hasUnpolledCycle(g, loop) {
			kind := "for { ... }"
			if forStmt.Cond != nil {
				kind = "for cond { ... }"
			}
			pass.Reportf(forStmt.Pos(),
				"%s loop has a cycle that never polls cancellation; call checkStop/ctx.Err (or a ctx-taking function) on every path, or justify with a // cancel: comment",
				kind)
		}
	}
}

// hasUnpolledCycle reports whether some cycle through the loop's head
// avoids every polling statement. It searches the natural-loop subgraph for
// a path head -> ... -> head that only crosses non-polling blocks.
func (pass *Pass) hasUnpolledCycle(g *CFG, loop *Loop) bool {
	polls := func(b *Block) bool {
		for _, n := range b.Nodes {
			if pass.nodePolls(n) {
				return true
			}
		}
		return false
	}
	return hasCycleAvoiding(g, loop, polls)
}

// hasCycleAvoiding reports whether some cycle through the loop's head
// avoids every block satisfying polls.
func hasCycleAvoiding(g *CFG, loop *Loop, polls func(*Block) bool) bool {
	members := g.LoopMembers(loop)
	if polls(loop.Head) {
		return false
	}
	visited := map[*Block]bool{}
	var stack []*Block
	for _, s := range loop.Head.Succs {
		if members[s] && !polls(s) && !visited[s] {
			visited[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s == loop.Head {
				return true
			}
			if members[s] && !polls(s) && !visited[s] {
				visited[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// nodePolls reports whether executing n polls cancellation. It scans the
// node without descending into function literals: a poll inside a closure
// runs when the closure runs, not on this loop's cycle.
func (pass *Pass) nodePolls(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(child ast.Node) bool {
		if found {
			return false
		}
		switch x := child.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if pass.callPolls(x) {
				found = true
				return false
			}
		case *ast.IncDecStmt:
			if x.Tok.String() == "--" && isBudgetName(exprName(x.X)) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isBudgetName(exprName(lhs)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// callPolls reports whether one call expression counts as a cancellation
// poll.
func (pass *Pass) callPolls(call *ast.CallExpr) bool {
	// A configured poll function, called directly or as a method.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if stringIn(fun.Name, pass.Cfg.CancelFunctions) {
			return true
		}
	case *ast.SelectorExpr:
		if stringIn(fun.Sel.Name, pass.Cfg.CancelFunctions) {
			return true
		}
		// A method on a context value: ctx.Err(), ctx.Done(), ….
		if t := pass.Pkg.Info.TypeOf(fun.X); t != nil && isContextType(t) {
			return true
		}
	}
	// A call that passes a context along is cancellation-aware by the
	// module's ctx-first convention.
	for _, arg := range call.Args {
		if t := pass.Pkg.Info.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// isBudgetName reports whether a variable name denotes a work budget.
func isBudgetName(name string) bool {
	return name != "" && strings.Contains(strings.ToLower(name), "budget")
}

// exprName renders an identifier or selector chain ("budget", "s.budget");
// other expressions render as "".
func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprName(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
