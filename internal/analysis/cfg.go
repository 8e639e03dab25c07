// Control-flow graphs over function bodies, built from pure syntax (no type
// information needed). The path-sensitive analyzer — cancel-poll — runs
// reachability over these graphs instead of guessing from lexical
// structure, which is what lets it accept a cancellation poll behind an if
// on every path and reject one behind an if on some paths.
//
// The construction is the textbook one specialized to Go's structured
// control flow plus goto: a Block is a maximal straight-line statement
// sequence; compound statements contribute only their non-control parts
// (an if's condition, a for's condition, a switch's tag) to blocks, with
// their bodies distributed to successor blocks. Back edges are recorded per
// loop statement at construction time, so analyzers get loop heads and
// back-edge sources without computing dominators.
package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Block is one basic block: statements (and control expressions) that
// execute in sequence, with control transferring to one of Succs at the
// end. Kind is a stable human-readable tag ("for.head", "if.then", …) used
// by golden tests and debug output.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Loop describes one for/range statement in a CFG: its head block (the
// target of back edges, holding the condition or range expression) and the
// statement itself for position reporting and comment lookup.
type Loop struct {
	Stmt  ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	Head  *Block
	entry *Block // the block that flowed into Head from before the loop
}

// CFG is the control-flow graph of one function body. Entry is the first
// block executed; Exit is the single synthetic block every return, panic,
// and fall-off-the-end edge targets.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Loops  []*Loop
}

// BackEdgeSources returns the blocks with an edge to l.Head that closes the
// loop (the post-statement block, body fall-through, and continue sites).
func (g *CFG) BackEdgeSources(l *Loop) []*Block {
	var back []*Block
	for _, p := range l.Head.Preds {
		if p != l.entry {
			back = append(back, p)
		}
	}
	return back
}

// LoopMembers returns the natural-loop block set of l: Head plus every
// block that reaches a back edge without passing through Head.
func (g *CFG) LoopMembers(l *Loop) map[*Block]bool {
	members := map[*Block]bool{l.Head: true}
	var stack []*Block
	for _, b := range g.BackEdgeSources(l) {
		if !members[b] {
			members[b] = true
			stack = append(stack, b)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			if !members[p] {
				members[p] = true
				stack = append(stack, p)
			}
		}
	}
	return members
}

// String renders the graph as one "bN(kind) -> bM bK" line per block, in
// index order — the golden-test format.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s) ->", b.Index, b.Kind)
		succs := append([]*Block(nil), b.Succs...)
		sort.Slice(succs, func(i, j int) bool { return succs[i].Index < succs[j].Index })
		for _, s := range succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// NewCFG builds the control-flow graph of a function body. Function
// literals nested in the body are treated as opaque values: their
// statements belong to their own CFGs, not the enclosing one.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: map[string]*Block{},
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = &Block{Kind: "exit"} // indexed last, below
	b.cur = b.g.Entry
	b.stmt(body)
	b.edge(b.cur, b.g.Exit)
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// ctrlFrame is one enclosing breakable/continuable statement during
// construction.
type ctrlFrame struct {
	label string
	brk   *Block // break target; nil only for labeled non-loop statements
	cont  *Block // continue target; nil for switch/select
}

type cfgBuilder struct {
	g        *CFG
	cur      *Block
	frames   []ctrlFrame
	labels   map[string]*Block // label name -> target block (created on first use)
	nextCase *Block            // fallthrough target while building a case clause
	// pendingLabel carries a label down to the loop/switch/select statement
	// it names, so break L / continue L resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a non-control node (statement or expression) to the current
// block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// takeLabel consumes the pending label for the statement that owns it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns (creating if needed) the block a label names.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// frameFor finds the innermost frame a break/continue resolves to.
func (b *cfgBuilder) frameFor(label string, needCont bool) *ctrlFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if needCont && f.cont == nil {
			continue
		}
		if !needCont && f.brk == nil {
			continue
		}
		return f
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, st := range x.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.stmt(x.Init)
		b.add(x.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		b.edge(cond, then)
		b.cur = then
		b.stmt(x.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if x.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = els
			b.stmt(x.Else)
			elseEnd = b.cur
		}
		done := b.newBlock("if.done")
		b.edge(thenEnd, done)
		if x.Else != nil {
			b.edge(elseEnd, done)
		} else {
			b.edge(cond, done)
		}
		b.cur = done
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(x.Init)
		head := b.newBlock("for.head")
		b.edge(b.cur, head)
		loop := &Loop{Stmt: x, Head: head, entry: b.cur}
		b.g.Loops = append(b.g.Loops, loop)
		if x.Cond != nil {
			head.Nodes = append(head.Nodes, x.Cond)
		}
		body := b.newBlock("for.body")
		var post *Block
		if x.Post != nil {
			post = b.newBlock("for.post")
		}
		done := b.newBlock("for.done")
		b.edge(head, body)
		if x.Cond != nil {
			b.edge(head, done)
		}
		cont := head
		if post != nil {
			cont = post
		}
		b.frames = append(b.frames, ctrlFrame{label: label, brk: done, cont: cont})
		b.cur = body
		b.stmt(x.Body)
		b.edge(b.cur, cont)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.cur = post
			b.stmt(x.Post)
			b.edge(b.cur, head)
		}
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edge(b.cur, head)
		loop := &Loop{Stmt: x, Head: head, entry: b.cur}
		b.g.Loops = append(b.g.Loops, loop)
		head.Nodes = append(head.Nodes, x.X)
		if x.Key != nil {
			head.Nodes = append(head.Nodes, x.Key)
		}
		if x.Value != nil {
			head.Nodes = append(head.Nodes, x.Value)
		}
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, done)
		b.frames = append(b.frames, ctrlFrame{label: label, brk: done, cont: head})
		b.cur = body
		b.stmt(x.Body)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.stmt(x.Init)
		if x.Tag != nil {
			b.add(x.Tag)
		}
		b.switchClauses(label, x.Body, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(cc.List))
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes, cc.Body, cc.List == nil
		}, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.stmt(x.Init)
		b.add(x.Assign)
		b.switchClauses(label, x.Body, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(cc.List))
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes, cc.Body, cc.List == nil
		}, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		done := b.newBlock("select.done")
		b.frames = append(b.frames, ctrlFrame{label: label, brk: done})
		hasDefault := false
		anyComm := false
		for _, cs := range x.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(head, blk)
			if cc.Comm == nil {
				hasDefault = true
			} else {
				anyComm = true
				// The select head evaluates every clause's channel operand
				// on entry (spec: all operands evaluated once, in order);
				// record the comm in both the head — where the evaluation
				// and readiness polling happen — and the clause block,
				// where its receive/send effect lands.
				head.Nodes = append(head.Nodes, cc.Comm)
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, done)
		}
		_ = hasDefault
		if !anyComm && !hasDefault {
			// select {} blocks forever: done is unreachable.
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done
	case *ast.LabeledStmt:
		lb := b.labelBlock(x.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		switch x.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = x.Label.Name
		}
		b.stmt(x.Stmt)
	case *ast.BranchStmt:
		label := ""
		if x.Label != nil {
			label = x.Label.Name
		}
		switch x.Tok.String() {
		case "break":
			if f := b.frameFor(label, false); f != nil {
				b.edge(b.cur, f.brk)
			}
		case "continue":
			if f := b.frameFor(label, true); f != nil {
				b.edge(b.cur, f.cont)
			}
		case "goto":
			b.edge(b.cur, b.labelBlock(label))
		case "fallthrough":
			b.edge(b.cur, b.nextCase)
		}
		b.cur = b.newBlock("unreach")
	case *ast.ReturnStmt:
		b.add(x)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock("unreach")
	case *ast.ExprStmt:
		b.add(x)
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.edge(b.cur, b.g.Exit)
				b.cur = b.newBlock("unreach")
			}
		}
	default:
		// Straight-line statements: declarations, assignments, sends,
		// increments, defers, go statements, empty statements.
		b.add(x)
	}
}

// switchClauses builds the shared case-clause structure of switch and type
// switch statements. pick extracts the guard expressions, body, and
// default-ness of a clause; fallthroughOK enables fallthrough edges.
func (b *cfgBuilder) switchClauses(label string, body *ast.BlockStmt, pick func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool), fallthroughOK bool) {
	head := b.cur
	done := b.newBlock("switch.done")
	b.frames = append(b.frames, ctrlFrame{label: label, brk: done})
	hasDefault := false
	blocks := make([]*Block, 0, len(body.List))
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		kind := "case"
		guards, _, isDefault := pick(cc)
		if isDefault {
			kind = "default"
			hasDefault = true
		}
		blk := b.newBlock("switch." + kind)
		b.edge(head, blk)
		blk.Nodes = append(blk.Nodes, guards...)
		blocks = append(blocks, blk)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		_, stmts, _ := pick(cc)
		b.cur = blocks[i]
		savedNext := b.nextCase
		if fallthroughOK && i+1 < len(blocks) {
			b.nextCase = blocks[i+1]
		} else {
			b.nextCase = nil
		}
		for _, st := range stmts {
			b.stmt(st)
		}
		b.nextCase = savedNext
		b.edge(b.cur, done)
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}
