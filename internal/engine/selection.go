package engine

import "sia/internal/predicate"

// selectProgram evaluates a compiled predicate over every row of t on par
// workers (par <= 0 means DefaultParallelism) and returns the acceptance
// bitmap: sel[i] is true exactly when predicate.Eval is TRUE on row i. The
// program is bound to t once. Linear comparisons over NOT NULL integer
// columns then run as column-at-a-time kernels, which makes a pushed-down
// filter an order of magnitude cheaper than a hash probe — the cost
// relationship predicate pushdown relies on. The bitmap is identical at
// any worker count: rows are independent and each worker writes only its
// own range. The bitmap and the OR scratch come from the engine's pool; the
// caller hands the bitmap back once it has read it.
func selectProgram(t *Table, prog *predicate.Program, par int) []bool {
	root := bind(t, prog)
	sel := nullPool.Get(t.nRows)
	forEachMorsel(t.nRows, par, func(_, _, lo, hi int) {
		chunk := sel[lo:hi]
		for i := range chunk {
			chunk[i] = true
		}
		scratch := nullPool.Get(2 * root.orDepth * len(chunk))
		root.run(t, chunk, lo, scratch)
		nullPool.Put(scratch)
	})
	return sel
}

type nodeOp uint8

const (
	nodeAnd nodeOp = iota
	nodeOr
	nodeLT   // kernel leaf: Σ coefs·cols + k < 0
	nodeEQ   // kernel leaf: Σ coefs·cols + k = 0, or ≠ 0 when negate is set
	nodeEval // row-wise predicate.Eval(pred) == True
)

// boundNode is a predicate.Program node bound to one table's backing
// arrays. Binding happens once per (program, table); running is pure over
// disjoint row ranges, so morsels execute concurrently. There are exactly
// two leaf evaluators: the wrapping int64 kernels, taken when every column
// the comparison mentions is a NOT NULL integer column and
// Program.FitsInt64 holds for the table's data bounds, and predicate.Eval
// for that leaf alone otherwise. The program is in negation normal form, so
// AND/OR over the leaves' "is TRUE" bitmaps is exactly Kleene AND/OR.
type boundNode struct {
	op   nodeOp
	kids []*boundNode

	cols   [][]int64
	coefs  []int64
	k      int64
	negate bool

	pred predicate.Predicate

	// orDepth is the deepest nesting of OR nodes at or below this node;
	// each level needs two scratch bitmaps while it runs.
	orDepth int
}

func bind(t *Table, p *predicate.Program) *boundNode {
	switch p.Kind {
	case predicate.ProgAnd, predicate.ProgOr:
		n := &boundNode{op: nodeAnd}
		for _, kid := range p.Kids {
			b := bind(t, kid)
			n.kids = append(n.kids, b)
			n.orDepth = max(n.orDepth, b.orDepth)
		}
		if p.Kind == predicate.ProgOr {
			n.op = nodeOr
			n.orDepth++
		}
		return n
	case predicate.ProgLinear:
		if n, ok := bindKernel(t, p); ok {
			return n
		}
	}
	return &boundNode{op: nodeEval, pred: p.Leaf}
}

// bindKernel binds a linear leaf to the int64 kernels, normalized so only
// three shapes exist: Σ + k < 0 (after negating the form for > and >= and
// tightening <= over integers), Σ + k = 0, and Σ + k ≠ 0. The kernels use
// wrapping machine arithmetic, so a leaf whose magnitude bound does not fit
// int64 is refused rather than allowed to wrap silently.
func bindKernel(t *Table, p *predicate.Program) (*boundNode, bool) {
	for _, name := range p.Refs {
		c, ok := t.schema.Lookup(name)
		if !ok || !c.Type.Integral() || !c.NotNull {
			return nil, false
		}
	}
	n := &boundNode{coefs: append([]int64(nil), p.Coefs...), k: p.K}
	maxAbs := make([]uint64, len(p.Cols))
	for i, name := range p.Cols {
		cd := t.cols[name]
		n.cols = append(n.cols, cd.ints)
		maxAbs[i] = cd.maxAbs
	}
	if !p.FitsInt64(maxAbs) {
		return nil, false
	}
	op := p.Leaf.Op
	if op == predicate.CmpGT || op == predicate.CmpGE {
		for i := range n.coefs {
			n.coefs[i] = -n.coefs[i]
		}
		n.k = -n.k
		op = op.Flip()
	}
	if op == predicate.CmpLE { // Σ + k <= 0  ==  Σ + k - 1 < 0 over integers
		op = predicate.CmpLT
		n.k--
	}
	switch op {
	case predicate.CmpLT:
		n.op = nodeLT
	case predicate.CmpEQ:
		n.op = nodeEQ
	case predicate.CmpNE:
		n.op, n.negate = nodeEQ, true
	default:
		return nil, false
	}
	return n, true
}

// run ANDs the node's "is TRUE" bitmap into sel, where sel[i] corresponds
// to row lo+i of t. scratch holds 2·orDepth bitmaps of len(sel).
func (n *boundNode) run(t *Table, sel []bool, lo int, scratch []bool) {
	switch n.op {
	case nodeAnd:
		for _, kid := range n.kids {
			kid.run(t, sel, lo, scratch)
		}
	case nodeOr:
		m := len(sel)
		acc, tmp, rest := scratch[:m], scratch[m:2*m], scratch[2*m:]
		clear(acc)
		for _, kid := range n.kids {
			copy(tmp, sel)
			kid.run(t, tmp, lo, rest)
			for i, ok := range tmp {
				acc[i] = acc[i] || ok
			}
		}
		copy(sel, acc)
	case nodeLT:
		vectorLT(n.cols, n.coefs, n.k, sel, lo)
	case nodeEQ:
		vectorEQ(n.cols, n.coefs, n.k, sel, lo, n.negate)
	case nodeEval:
		for i, ok := range sel {
			if ok {
				// WHERE semantics: a row is accepted exactly when the
				// predicate is True; Unknown rejects like False.
				sel[i] = predicate.Eval(n.pred, t.Tuple(lo+i)) == predicate.True
			}
		}
	}
}

// vectorLT ANDs (Σ coefᵢ·colᵢ + k < 0) into sel for rows [lo, lo+len(sel)),
// with unrolled shapes for the one- and two-column cases that dominate
// pushed-down predicates.
func vectorLT(cols [][]int64, coefs []int64, k int64, sel []bool, lo int) {
	switch len(cols) {
	case 0:
		if k >= 0 {
			clear(sel)
		}
	case 1:
		a := cols[0][lo:]
		ca := coefs[0]
		if ca == 1 {
			for i := range sel {
				sel[i] = sel[i] && a[i]+k < 0
			}
		} else if ca == -1 {
			for i := range sel {
				sel[i] = sel[i] && k-a[i] < 0
			}
		} else {
			for i := range sel {
				sel[i] = sel[i] && ca*a[i]+k < 0
			}
		}
	case 2:
		a, b := cols[0][lo:], cols[1][lo:]
		ca, cb := coefs[0], coefs[1]
		if ca == 1 && cb == -1 {
			for i := range sel {
				sel[i] = sel[i] && a[i]-b[i]+k < 0
			}
		} else if ca == -1 && cb == 1 {
			for i := range sel {
				sel[i] = sel[i] && b[i]-a[i]+k < 0
			}
		} else {
			for i := range sel {
				sel[i] = sel[i] && ca*a[i]+cb*b[i]+k < 0
			}
		}
	default:
		for i := range sel {
			if !sel[i] {
				continue
			}
			s := k
			for j, col := range cols {
				s += coefs[j] * col[lo+i]
			}
			sel[i] = s < 0
		}
	}
}

// vectorEQ ANDs (Σ + k = 0), or its negation, into sel for rows
// [lo, lo+len(sel)).
func vectorEQ(cols [][]int64, coefs []int64, k int64, sel []bool, lo int, negate bool) {
	for i := range sel {
		if !sel[i] {
			continue
		}
		s := k
		for j, col := range cols {
			s += coefs[j] * col[lo+i]
		}
		sel[i] = (s == 0) != negate
	}
}
