package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AllocBudget returns the alloc-budget analyzer: it walks the call graph
// from every function annotated // sia:hotpath and flags operations that
// allocate on the Go heap in any reachable function. The point is to turn
// the runtime AllocsPerRun guarantees in internal/obs — and the zero-alloc
// ambitions of the smt elimination loops and engine kernels — into a
// compile-time check.
//
// Flagged operations:
//
//   - &T{...} and slice/map composite literals (escape-prone)
//   - make, new, and append whose result lands in a different variable
//     (x = append(x, ...) is the amortized in-place idiom and is exempt)
//   - map writes (insertion may grow the table)
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//   - interface boxing at call sites (non-pointer-shaped, non-constant
//     arguments passed to interface parameters)
//   - calls to known-allocating standard library functions (fmt.Sprintf,
//     errors.New, strings.Join, strconv.Itoa, big.NewInt, (*big.Int).String,
//     ...)
//   - function literals that capture variables, and go statements
//   - calls the graph cannot resolve (untracked function values,
//     interfaces with no known implementation): an unresolved callee cannot
//     be proven allocation-free
//
// Exemptions: allocations inside a return statement whose error result is
// non-nil (error paths are cold by definition), and inside panic arguments.
// A site is justified with an `// alloc: <reason>` comment on its line or
// the line above; a declaration whose doc comment carries `// alloc:`
// justifies the whole function. The pass also reports a `// sia:<name>` doc
// annotation it does not know, so a misspelt `// sia:hotpath` cannot
// silently declare nothing.
func AllocBudget(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "alloc-budget",
		Doc:  "flags heap allocations reachable from // sia:hotpath entry points",
		Run:  runAllocBudget,
	}
}

func runAllocBudget(pass *Pass) {
	prog := pass.Program()
	hot := prog.HotReachable()
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg {
			continue
		}
		for _, c := range node.UnknownAnnotations {
			pass.Reportf(c.Pos(), "unknown annotation %q declares nothing (known: // %s)", c.Text, markHotPath)
		}
		root, reachable := hot[node]
		if !reachable || allocJustifiedDecl(node) {
			continue
		}
		scanAllocs(pass, node, root)
	}
}

// allocJustifiedDecl reports whether node or an enclosing declaration
// carries a decl-level // alloc: justification (a literal inherits its
// creator's blanket).
func allocJustifiedDecl(node *FuncNode) bool {
	for n := node; n != nil; n = n.Encl {
		if n.AllocJustified {
			return true
		}
	}
	return false
}

// allocFuncs are standard-library calls that always allocate their result.
// Keys are (*types.Func).FullName. The list is deliberately conservative:
// append-style APIs (strconv.AppendInt, (*big.Int).Append) write into a
// caller buffer and are absent.
var allocFuncs = map[string]string{
	"fmt.Sprintf":  "fmt.Sprintf allocates its result",
	"fmt.Sprint":   "fmt.Sprint allocates its result",
	"fmt.Sprintln": "fmt.Sprintln allocates its result",
	"fmt.Errorf":   "fmt.Errorf allocates",
	"fmt.Fprintf":  "fmt.Fprintf allocates internally",
	"fmt.Fprint":   "fmt.Fprint allocates internally",
	"fmt.Fprintln": "fmt.Fprintln allocates internally",
	"errors.New":   "errors.New allocates",
	"errors.Join":  "errors.Join allocates",

	"strings.Join":       "strings.Join allocates",
	"strings.Repeat":     "strings.Repeat allocates",
	"strings.Replace":    "strings.Replace allocates",
	"strings.ReplaceAll": "strings.ReplaceAll allocates",
	"strings.ToUpper":    "strings.ToUpper allocates",
	"strings.ToLower":    "strings.ToLower allocates",
	"strings.Split":      "strings.Split allocates",
	"strings.SplitN":     "strings.SplitN allocates",
	"strings.Fields":     "strings.Fields allocates",
	"strings.Clone":      "strings.Clone allocates",

	"strconv.Itoa":        "strconv.Itoa allocates",
	"strconv.FormatInt":   "strconv.FormatInt allocates",
	"strconv.FormatUint":  "strconv.FormatUint allocates",
	"strconv.FormatFloat": "strconv.FormatFloat allocates",
	"strconv.Quote":       "strconv.Quote allocates",

	"sort.Slice":       "sort.Slice boxes its closure",
	"sort.SliceStable": "sort.SliceStable boxes its closure",
	"sort.Sort":        "sort.Sort boxes its argument",
	"sort.Stable":      "sort.Stable boxes its argument",
	"sort.Strings":     "sort.Strings boxes its argument",
	"sort.Ints":        "sort.Ints boxes its argument",

	"math/big.NewInt":   "big.NewInt allocates",
	"math/big.NewRat":   "big.NewRat allocates",
	"math/big.NewFloat": "big.NewFloat allocates",

	"(*math/big.Int).String":      "(*big.Int).String allocates",
	"(*math/big.Int).Text":        "(*big.Int).Text allocates",
	"(*math/big.Int).Bytes":       "(*big.Int).Bytes allocates",
	"(*math/big.Rat).String":      "(*big.Rat).String allocates",
	"(*math/big.Rat).RatString":   "(*big.Rat).RatString allocates",
	"(*math/big.Rat).FloatString": "(*big.Rat).FloatString allocates",

	"(*strings.Builder).String": "(*strings.Builder).String allocates",
	"(*bytes.Buffer).String":    "(*bytes.Buffer).String allocates",
	"bytes.NewBuffer":           "bytes.NewBuffer allocates",
	"bytes.NewBufferString":     "bytes.NewBufferString allocates",
}

// scanAllocs reports every unjustified allocating operation in node's own
// body (nested literals are separate nodes) as reachable from the hot entry
// root.
func scanAllocs(pass *Pass, node *FuncNode, root *FuncNode) {
	pkg := node.Pkg
	exempt := exemptRanges(pkg, node)
	skipLits := map[*ast.CompositeLit]bool{}
	handledAppends := map[*ast.CallExpr]bool{}

	report := func(pos token.Pos, desc string) {
		if exempt.covers(pos) {
			return
		}
		if pkg.commentedWith(pos, markAlloc) {
			return
		}
		pass.Reportf(pos, "hot path via %s: %s", root.Name, desc)
	}

	walkOwn(node, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return
			}
			if lit, ok := unparen(x.X).(*ast.CompositeLit); ok {
				skipLits[lit] = true
				report(x.Pos(), fmt.Sprintf("&%s escapes to the heap", compositeName(pkg, lit)))
			}
		case *ast.CompositeLit:
			if skipLits[x] {
				return
			}
			t := typeOf(pkg, x)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				report(x.Pos(), "map literal allocates")
			}
		case *ast.AssignStmt:
			scanAssign(pkg, x, handledAppends, report)
		case *ast.IncDecStmt:
			if ix, ok := unparen(x.X).(*ast.IndexExpr); ok && isMapIndex(pkg, ix) {
				report(x.Pos(), "map update may grow the table")
			}
		case *ast.CallExpr:
			scanCall(pkg, node, x, handledAppends, report)
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return
			}
			if t := typeOf(pkg, x); t != nil && isString(t) && !isConstExpr(pkg, x) {
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if free := capturesVars(pkg, x); free != "" {
				report(x.Pos(), fmt.Sprintf("function literal captures %s and allocates a closure", free))
			}
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		}
	})

	// Unresolvable and known-allocating calls, from the edges.
	for _, e := range node.Edges {
		pos := e.Site.Pos()
		switch {
		case e.Kind == EdgeDynamic:
			report(pos, "call through unresolved function value (cannot prove allocation-free)")
		case e.Kind == EdgeInterface && e.Callee == nil:
			name := "interface method"
			if e.Ext != nil {
				name = e.Ext.FullName()
			}
			report(pos, fmt.Sprintf("interface call %s has no resolvable implementation (cannot prove allocation-free)", name))
		case e.Ext != nil:
			if desc, known := allocFuncs[e.Ext.FullName()]; known {
				report(pos, desc)
			}
		}
	}
}

// scanAssign flags map writes and cross-variable appends, and records
// in-place appends so scanCall does not re-flag them.
func scanAssign(pkg *Package, x *ast.AssignStmt, handled map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	for _, lhs := range x.Lhs {
		if ix, ok := unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(pkg, ix) {
			report(lhs.Pos(), "map assignment may grow the table")
		}
	}
	if len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i, rhs := range x.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(pkg, call, "append") || len(call.Args) == 0 {
			continue
		}
		handled[call] = true
		if sameRef(pkg, x.Lhs[i], call.Args[0]) {
			continue // x = append(x, ...): amortized in-place growth
		}
		report(call.Pos(), "append into a different variable copies and allocates")
	}
}

// sameRef reports whether two expressions statically denote the same
// variable or field chain (x, s.buf, a.b.c).
func sameRef(pkg *Package, a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch ax := a.(type) {
	case *ast.Ident:
		bx, ok := b.(*ast.Ident)
		return ok && objectOf(pkg, ax) != nil && objectOf(pkg, ax) == objectOf(pkg, bx)
	case *ast.SelectorExpr:
		bx, ok := b.(*ast.SelectorExpr)
		return ok && ax.Sel.Name == bx.Sel.Name && sameRef(pkg, ax.X, bx.X)
	}
	return false
}

// scanCall flags builtin allocators, allocating conversions, and interface
// boxing of arguments.
func scanCall(pkg *Package, node *FuncNode, call *ast.CallExpr, handled map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	fun := unwrapCallFun(call.Fun)

	// Conversions: string <-> []byte/[]rune copy.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := typeOf(pkg, call.Args[0])
		if src != nil {
			if isString(src.Underlying()) && isByteOrRuneSlice(dst) {
				report(call.Pos(), "string to slice conversion copies and allocates")
			} else if isByteOrRuneSlice(src.Underlying()) && isString(dst) && !isConstExpr(pkg, call.Args[0]) {
				report(call.Pos(), "slice to string conversion copies and allocates")
			}
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, okB := pkg.Info.Uses[id].(*types.Builtin); okB {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if !handled[call] {
					report(call.Pos(), "append outside x = append(x, ...) may copy and allocate")
				}
			}
			return
		}
	}

	// Interface boxing of arguments.
	sig, ok := typeOf(pkg, call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	nParams := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= nParams-1:
			if sl, okS := sig.Params().At(nParams - 1).Type().(*types.Slice); okS {
				pt = sl.Elem()
			}
		case i < nParams:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := typeOf(pkg, arg)
		if at == nil || isConstExpr(pkg, arg) || !boxingAllocates(at) {
			continue
		}
		report(arg.Pos(), fmt.Sprintf("passing %s to interface parameter boxes and allocates", types.TypeString(at, nil)))
	}
}

// exemptSpans are source ranges where allocation is acceptable: error-path
// returns and panic arguments.
type exemptSpans []span

type span struct{ lo, hi token.Pos }

func (e exemptSpans) covers(pos token.Pos) bool {
	for _, s := range e {
		if s.lo <= pos && pos <= s.hi {
			return true
		}
	}
	return false
}

// exemptRanges collects the error-terminal spans of node's body: return
// statements whose error result is non-nil, and panic call arguments.
// fmt.Errorf and friends on those paths are the cold, acceptable case the
// analyzer's doc promises not to flag.
func exemptRanges(pkg *Package, node *FuncNode) exemptSpans {
	var spans exemptSpans
	sig := nodeSignature(pkg, node)
	walkOwn(node, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			if sig != nil && returnsNonNilError(pkg, sig, x) {
				spans = append(spans, span{x.Pos(), x.End()})
			}
		case *ast.CallExpr:
			if id, ok := unwrapCallFun(x.Fun).(*ast.Ident); ok {
				if b, okB := pkg.Info.Uses[id].(*types.Builtin); okB && b.Name() == "panic" {
					spans = append(spans, span{x.Pos(), x.End()})
				}
			}
		}
	})
	return spans
}

func nodeSignature(pkg *Package, node *FuncNode) *types.Signature {
	if node.Obj != nil {
		sig, _ := node.Obj.Type().(*types.Signature)
		return sig
	}
	if node.Lit != nil {
		sig, _ := typeOf(pkg, node.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// returnsNonNilError reports whether ret explicitly returns a non-nil value
// in an error-typed result position.
func returnsNonNilError(pkg *Package, sig *types.Signature, ret *ast.ReturnStmt) bool {
	res := sig.Results()
	if res.Len() == 0 || len(ret.Results) != res.Len() {
		return false
	}
	for i := 0; i < res.Len(); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := unparen(ret.Results[i]).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

// capturesVars returns the name of a variable the literal captures from its
// environment ("" when it captures nothing). A capture-free literal
// compiles to a static function and does not allocate.
func capturesVars(pkg *Package, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pkg.Types.Scope() {
			return true
		}
		// Declared outside the literal's extent.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// compositeName renders the literal's type for a finding message.
func compositeName(pkg *Package, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type) + "{...}"
	}
	if t := typeOf(pkg, lit); t != nil {
		return types.TypeString(t, nil) + "{...}"
	}
	return "composite literal"
}

func isMapIndex(pkg *Package, ix *ast.IndexExpr) bool {
	t := typeOf(pkg, ix.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltin(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := unwrapCallFun(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func objectOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// boxingAllocates reports whether converting a value of type t to an
// interface heap-allocates. Pointer-shaped values (pointers, maps,
// channels, functions, unsafe pointers) are stored directly in the
// interface word; everything else is copied to the heap.
func boxingAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.Invalid
	default:
		return true
	}
}
