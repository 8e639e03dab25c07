package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body (given as the full function source) and
// builds its CFG.
func buildCFG(t *testing.T, fnSrc string) *CFG {
	t.Helper()
	src := "package p\n" + fnSrc
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			return NewCFG(fn.Body)
		}
	}
	t.Fatalf("no function in %q", fnSrc)
	return nil
}

// wantGraph asserts the exact successor structure of a CFG in its String
// rendering.
func wantGraph(t *testing.T, g *CFG, want string) {
	t.Helper()
	got := strings.TrimSpace(g.String())
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("graph mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCFGIf(t *testing.T) {
	g := buildCFG(t, `
func f(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	return x
}`)
	wantGraph(t, g, `
b0(entry) -> b1 b2
b1(if.then) -> b3
b2(if.else) -> b3
b3(if.done) -> b5
b4(unreach) -> b5
b5(exit) ->`)
}

func TestCFGIfNoElse(t *testing.T) {
	g := buildCFG(t, `
func f(a bool) {
	if a {
		work()
	}
	done()
}`)
	wantGraph(t, g, `
b0(entry) -> b1 b2
b1(if.then) -> b2
b2(if.done) -> b3
b3(exit) ->`)
}

func TestCFGFor(t *testing.T) {
	g := buildCFG(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		work(i)
	}
	done()
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(for.head) -> b2 b4
b2(for.body) -> b3
b3(for.post) -> b1
b4(for.done) -> b5
b5(exit) ->`)
	if len(g.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(g.Loops))
	}
	back := g.BackEdgeSources(g.Loops[0])
	if len(back) != 1 || back[0].Kind != "for.post" {
		t.Errorf("back edges %v, want [for.post]", kinds(back))
	}
}

func TestCFGForever(t *testing.T) {
	g := buildCFG(t, `
func f() {
	for {
		work()
	}
}`)
	// No edge from for.head to for.done: the loop can only be left by a
	// break, and there is none, so done and exit stay unreachable from
	// entry via the loop.
	wantGraph(t, g, `
b0(entry) -> b1
b1(for.head) -> b2
b2(for.body) -> b1
b3(for.done) -> b4
b4(exit) ->`)
}

func TestCFGRange(t *testing.T) {
	g := buildCFG(t, `
func f(xs []int) {
	total := 0
	for _, x := range xs {
		total += x
	}
	use(total)
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(range.head) -> b2 b3
b2(range.body) -> b1
b3(range.done) -> b4
b4(exit) ->`)
	if len(g.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(g.Loops))
	}
	back := g.BackEdgeSources(g.Loops[0])
	if len(back) != 1 || back[0].Kind != "range.body" {
		t.Errorf("back edges %v, want [range.body]", kinds(back))
	}
}

func TestCFGSwitch(t *testing.T) {
	g := buildCFG(t, `
func f(x int) int {
	switch x {
	case 1:
		return 10
	case 2:
		fallthrough
	default:
		x++
	}
	return x
}`)
	// b2/b3/b4 are the two cases and the default; b3's fallthrough edge
	// targets the default block b4, and case 1's return edges to exit.
	wantGraph(t, g, `
b0(entry) -> b2 b3 b4
b1(switch.done) -> b8
b2(switch.case) -> b8
b3(switch.case) -> b4
b4(switch.default) -> b1
b5(unreach) -> b1
b6(unreach) -> b1
b7(unreach) -> b8
b8(exit) ->`)
}

func TestCFGSwitchNoDefault(t *testing.T) {
	g := buildCFG(t, `
func f(x int) {
	switch x {
	case 1:
		work()
	}
	done()
}`)
	// Without a default the head also flows straight to done.
	wantGraph(t, g, `
b0(entry) -> b1 b2
b1(switch.done) -> b3
b2(switch.case) -> b1
b3(exit) ->`)
}

func TestCFGSelect(t *testing.T) {
	g := buildCFG(t, `
func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
		work()
	}
	return 0
}`)
	// No default clause: the head blocks until a comm is ready, so its only
	// successors are the two comm clauses.
	wantGraph(t, g, `
b0(entry) -> b2 b4
b1(select.done) -> b6
b2(select.case) -> b6
b3(unreach) -> b1
b4(select.case) -> b1
b5(unreach) -> b6
b6(exit) ->`)
}

func TestCFGGoto(t *testing.T) {
	g := buildCFG(t, `
func f(n int) {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	done()
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(label.loop) -> b2 b4
b2(if.then) -> b1
b3(unreach) -> b4
b4(if.done) -> b5
b5(exit) ->`)
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildCFG(t, `
func f(xs, ys []int) {
outer:
	for _, x := range xs {
		for _, y := range ys {
			if x == y {
				break outer
			}
			work(x, y)
		}
	}
	done()
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(label.outer) -> b2
b2(range.head) -> b3 b4
b3(range.body) -> b5
b4(range.done) -> b11
b5(range.head) -> b6 b7
b6(range.body) -> b8 b10
b7(range.done) -> b2
b8(if.then) -> b4
b9(unreach) -> b10
b10(if.done) -> b5
b11(exit) ->`)
	// break outer exits the outer loop: the inner if.then block's successor
	// is the outer loop's done block (b4), not the inner one (b7).
}

func TestCFGLabeledContinue(t *testing.T) {
	g := buildCFG(t, `
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if skip(i, j) {
				continue outer
			}
		}
	}
}`)
	// The continue outer edge must target the outer loop's post block.
	var outerPost *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.post" {
			outerPost = b
			break // blocks are created outer-first
		}
	}
	if outerPost == nil {
		t.Fatal("no for.post block")
	}
	foundFromThen := false
	for _, p := range outerPost.Preds {
		if p.Kind == "if.then" {
			foundFromThen = true
		}
	}
	if !foundFromThen {
		t.Errorf("continue outer does not reach the outer post block; preds are %v", kinds(outerPost.Preds))
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := buildCFG(t, `
func f(a bool) {
	if !a {
		panic("p: boom")
	}
	work()
}`)
	wantGraph(t, g, `
b0(entry) -> b1 b3
b1(if.then) -> b4
b2(unreach) -> b3
b3(if.done) -> b4
b4(exit) ->`)
}

// TestCFGDeferInLoop pins that a defer inside a loop body stays in the
// body block — one registration per iteration — and does not disturb the
// loop's edge structure.
func TestCFGDeferInLoop(t *testing.T) {
	g := buildCFG(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		defer done(i)
	}
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(for.head) -> b2 b4
b2(for.body) -> b3
b3(for.post) -> b1
b4(for.done) -> b5
b5(exit) ->`)
	var body *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.body" {
			body = b
		}
	}
	foundDefer := false
	for _, n := range body.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			foundDefer = true
		}
	}
	if !foundDefer {
		t.Errorf("defer statement not recorded in the loop body block")
	}
}

// TestCFGSelectDefault pins that a select with a default clause gives the
// head exactly its clause blocks as successors — the default makes the
// select non-blocking, and both arms here return, leaving select.done
// unreachable from entry.
func TestCFGSelectDefault(t *testing.T) {
	g := buildCFG(t, `
func f(a chan int) int {
	select {
	case x := <-a:
		return x
	default:
		return -1
	}
}`)
	wantGraph(t, g, `
b0(entry) -> b2 b4
b1(select.done) -> b6
b2(select.case) -> b6
b3(unreach) -> b1
b4(select.case) -> b6
b5(unreach) -> b1
b6(exit) ->`)
}

// TestCFGLabeledContinueRanges pins continue-to-label across nested range
// loops: the if.then block's successor must be the OUTER range head (b2),
// not the inner one (b5) — range loops have no post block, so continue
// targets the head directly.
func TestCFGLabeledContinueRanges(t *testing.T) {
	g := buildCFG(t, `
func f(xss [][]int) {
outer:
	for _, xs := range xss {
		for _, x := range xs {
			if x < 0 {
				continue outer
			}
			work(x)
		}
	}
}`)
	wantGraph(t, g, `
b0(entry) -> b1
b1(label.outer) -> b2
b2(range.head) -> b3 b4
b3(range.body) -> b5
b4(range.done) -> b11
b5(range.head) -> b6 b7
b6(range.body) -> b8 b10
b7(range.done) -> b2
b8(if.then) -> b2
b9(unreach) -> b10
b10(if.done) -> b5
b11(exit) ->`)
}

// TestCFGDeadCodeAfterPanic pins that statements after a terminating panic
// land in an unreach block with no predecessor on any entry path, while the
// panic block itself edges straight to exit.
func TestCFGDeadCodeAfterPanic(t *testing.T) {
	g := buildCFG(t, `
func f() {
	panic("p: stop")
	work()
}`)
	wantGraph(t, g, `
b0(entry) -> b2
b1(unreach) -> b2
b2(exit) ->`)
	var dead *Block
	for _, b := range g.Blocks {
		if b.Kind == "unreach" {
			dead = b
		}
	}
	if len(dead.Preds) != 0 {
		t.Errorf("dead block has preds %v, want none", kinds(dead.Preds))
	}
	if len(dead.Nodes) == 0 {
		t.Errorf("statements after panic were not collected into the dead block")
	}
}

func kinds(bs []*Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Kind)
	}
	return out
}
